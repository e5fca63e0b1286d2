"""Tests for M-removal enumeration against exhaustive oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from samplequad.basis import BasisSpec, basis_matrix, domain_from_samples
from samplequad.errors import NullSpaceFailure
from samplequad.linalg import null_space
from samplequad.removal import Removal, RemovalProblem
from samplequad.rule import QuadratureRule, SampleSet, construct_fixed_rule


def brute_force_removals(rule, m):
    """All index subsets whose deletion leaves an exact non-negative rule."""
    n = rule.n_nodes
    V = basis_matrix(replace(rule.spec, size=n - m), rule.nodes)
    mu = V @ rule.weights
    out = set()
    for q in itertools.combinations(range(n), m):
        keep = [i for i in range(n) if i not in q]
        w, *_ = np.linalg.lstsq(V[:, keep], mu, rcond=None)
        if np.abs(V[:, keep] @ w - mu).max() > 1e-9:
            continue
        if w.min() >= -1e-11:
            out.add(q)
    return out


def random_rule(rng, n_samples, size):
    pts = rng.random((n_samples, 1))
    ss = SampleSet(pts)
    spec = BasisSpec(d=1, size=size, domain=domain_from_samples(pts))
    return construct_fixed_rule(ss, spec)


def removal_problem(rule, m):
    """The M-removal problem of a rule on its basis shrunk by M functions."""
    V = basis_matrix(replace(rule.spec, size=rule.n_nodes - m), rule.nodes)
    return RemovalProblem.from_parts(rule.weights, null_space(V, m))


def solve_wave(problem, wave):
    """Per removal of `wave`: (weights, exchange partners), None if no vertex.

    One `_vertices` solve and one `_neighbors` sweep, as the walk takes a wave.
    """
    q_mat = np.asarray(wave, dtype=np.intp)
    W, B, bad = problem._vertices(q_mat)
    partners = problem._neighbors(q_mat, W, problem.C @ B)
    return [None if b else (w, p) for w, p, b in zip(W, partners, bad)]


def neighbors(problem, indices):
    """The exchange partners of one vertex, as the walk computes them."""
    _, partners = solve_wave(problem, [tuple(indices)])[0]
    return partners


def vertex_subsets(problem):
    """Every M-subset whose vertex solve passes the checks, in lexicographic order.

    All subsets are solved in one `_vertices` batch.
    """
    q_mat = np.array(list(itertools.combinations(range(problem.n), problem.m)), dtype=np.intp)
    _, _, bad = problem._vertices(q_mat)
    return [tuple(q) for q in q_mat[~bad].tolist()]


def first_vertex(problem):
    """A start vertex found by brute force: the first subset that passes the checks."""
    return Removal(vertex_subsets(problem)[0])


def all_removals(problem, **kwargs):
    """`enumerate`, its walk seeded by brute force."""
    return problem.enumerate(lambda: first_vertex(problem), **kwargs)


class TestFindInitialRemoval:
    """The brute-force start vertex, and the vertex solve it relies on."""

    def test_one_removal_is_one_of_the_two(self):
        rng = np.random.default_rng(0)
        rule = random_rule(rng, 9, 4)
        problem = removal_problem(rule, 1)
        assert first_vertex(problem).indices in brute_force_removals(rule, 1)
        assert {r.indices for r in all_removals(problem)} == brute_force_removals(rule, 1)

    def test_remove_all_but_one(self):
        # guard case: only the single remaining node carries weight one
        rng = np.random.default_rng(1)
        rule = random_rule(rng, 7, 4)
        n = rule.n_nodes
        problem = removal_problem(rule, n - 1)
        rem = first_vertex(problem)
        assert len(rem.indices) == n - 1
        keep = [i for i in range(n) if i not in rem.indices]
        assert len(keep) == 1
        assert {r.indices for r in all_removals(problem)} == brute_force_removals(rule, n - 1)

    def test_two_removal_in_brute_force_set(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rule = random_rule(rng, int(rng.integers(7, 10)), 5)
            problem = removal_problem(rule, 2)
            # the vertex solve accepts exactly the brute-force removals
            assert set(vertex_subsets(problem)) == brute_force_removals(rule, 2)


class TestNeighbor:
    def test_involution(self):
        rng = np.random.default_rng(3)
        rule = random_rule(rng, 9, 5)
        problem = removal_problem(rule, 2)
        rem = first_vertex(problem).indices
        for j, flipped in enumerate(neighbors(problem, rem)):
            # exchanging the j-th removed node keeps the other one
            assert rem[1 - j] in flipped
            # exchanging the new node back returns to the start
            new = [t for t, v in enumerate(flipped) if v not in rem]
            assert len(new) == 1
            assert neighbors(problem, flipped)[new[0]] == rem

    def test_m_one_swaps_between_the_two(self):
        rng = np.random.default_rng(4)
        rule = random_rule(rng, 8, 4)
        both = brute_force_removals(rule, 1)
        problem = removal_problem(rule, 1)
        rem = first_vertex(problem).indices
        (other,) = neighbors(problem, rem)
        assert {rem, other} == both

    def test_neighbor_is_valid_removal(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rule = random_rule(rng, 9, 5)
            problem = removal_problem(rule, 2)
            out = neighbors(problem, first_vertex(problem).indices)
            assert out[0] in brute_force_removals(rule, 2)

    def test_singular_block_is_not_a_vertex(self):
        # removing the same node twice gives a singular block, which must
        # fail the vertex solve rather than be solved in least squares
        rng = np.random.default_rng(0)
        problem = removal_problem(random_rule(rng, 9, 5), 2)
        with pytest.raises(NullSpaceFailure):
            problem.vertex_weights((0, 0))
        _, B, bad = problem._vertices(np.array([(0, 0), (0, 1)], dtype=np.intp))
        assert bad[0]
        assert not B[0].any()


class TestEnumerateRemovals:
    def test_exactly_two_one_removals(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rule = random_rule(rng, int(rng.integers(6, 12)), int(rng.integers(3, 6)))
            removals = all_removals(removal_problem(rule, 1))
            assert len(removals) == 2

    def test_equals_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            size = int(rng.integers(3, 5))
            rule = random_rule(rng, int(rng.integers(6, 9)), size)
            for m in (1, 2, 3):
                if m >= rule.n_nodes:
                    continue
                got = {r.indices for r in all_removals(removal_problem(rule, m))}
                assert got == brute_force_removals(rule, m)

    def test_every_removal_validates_independently(self):
        rng = np.random.default_rng(8)
        rule = random_rule(rng, 9, 5)
        sub = BasisSpec(d=1, size=rule.n_nodes - 2, domain=rule.spec.domain)
        V = basis_matrix(sub, rule.nodes)
        mu = V @ rule.weights
        for rem in all_removals(removal_problem(rule, 2)):
            keep = [i for i in range(rule.n_nodes) if i not in rem.indices]
            w = np.linalg.solve(V[:, keep], mu)
            assert w.min() >= -1e-11
            assert np.abs(V[:, keep] @ w - mu).max() <= 1e-9

    def test_independent_of_initial_removal(self):
        rng = np.random.default_rng(9)
        rule = random_rule(rng, 9, 5)
        removals = all_removals(removal_problem(rule, 2))
        assert len(removals) >= 2
        for start in removals[:3]:
            again = removal_problem(rule, 2).enumerate(start)
            assert [r.indices for r in again] == [r.indices for r in removals]

    def test_symmetric_rule_enumeration_closed_under_mirror(self):
        # weights and nodes symmetric about zero: degenerate vertices with
        # two simultaneous zeros appear, and removals are canonicalized over
        # their actual zero set; the zero sets must map to themselves under
        # index reversal and cover the brute-force set
        nodes = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        weights = np.array([0.15, 0.2, 0.3, 0.2, 0.15])
        spec = BasisSpec(d=1, size=5, domain=((-1.0, 1.0),))
        rule = QuadratureRule(nodes=nodes, weights=weights, spec=spec, K=4)
        for m in (1, 2):
            removals = all_removals(removal_problem(rule, m))
            zero_sets = {r.zero_indices for r in removals}
            mirrored = {tuple(sorted(4 - i for i in q)) for q in zero_sets}
            assert zero_sets == mirrored
            # every brute-force removal is contained in an enumerated zero set
            for q in brute_force_removals(rule, m):
                assert any(set(q) <= set(z) for z in zero_sets)
            # and every enumerated nominal removal is brute-force valid
            assert {r.indices for r in removals} <= brute_force_removals(rule, m)

    def test_work_scales_with_result_count(self):
        rng = np.random.default_rng(10)
        for n_samples, size in ((8, 4), (10, 5), (12, 6)):
            rule = random_rule(rng, n_samples, size)
            for m in (2, 3):
                stats = {}
                removals = all_removals(removal_problem(rule, m), stats=stats)
                z = len(removals)
                # the ring finds each vertex once; the walk pops a few more
                assert stats["pops"] == z if m == 2 else stats["pops"] <= z + m + 1

    def test_cap_partial_returns_valid_subset(self):
        rng = np.random.default_rng(12)
        rule = random_rule(rng, 10, 5)
        full = {r.indices for r in all_removals(removal_problem(rule, 3))}
        prob = removal_problem(rule, 3)
        stats = {}
        partial = all_removals(prob, cap=3, stats=stats)
        assert stats["capped"]
        assert 0 < len(partial) <= len(full)
        assert {r.indices for r in partial} <= full

    def test_removal_dataclass_defaults(self):
        r = Removal(indices=(1, 3))
        assert r.zero_indices == (1, 3)
        assert Removal(indices=(1, 3), zero_indices=(1, 2, 3)).indices == (1, 3)


def symmetric_rule():
    """Nodes and weights symmetric about zero: degenerate vertices."""
    nodes = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    weights = np.array([0.15, 0.2, 0.3, 0.2, 0.15])
    spec = BasisSpec(d=1, size=5, domain=((-1.0, 1.0),))
    return QuadratureRule(nodes=nodes, weights=weights, spec=spec, K=4)


def wave_cases():
    rng = np.random.default_rng(14)
    for m in (2, 3, 4):
        for _ in range(3):
            rule = random_rule(rng, 12, 8)
            yield removal_problem(rule, m)
    for m in (1, 2, 3):
        yield removal_problem(symmetric_rule(), m)


def cold_walk(problem, cap=10**6):
    """The removals the walk finds from the brute-force start vertex, sorted."""
    found, _, _ = problem._walk(first_vertex(problem), cap)
    return [found[q] for q in sorted(found)]


class TestProcessWave:
    @pytest.mark.parametrize("problem", list(wave_cases()))
    def test_batch_matches_one_vertex_at_a_time(self, problem):
        # every vertex, plus index sets that are no vertex; then, for M >= 2,
        # a repeated index, whose singular block makes numpy refuse the stack
        wave = [r.indices for r in cold_walk(problem)]
        wave += [q for q in itertools.combinations(range(problem.n), problem.m)
                 if q not in wave][:6]
        for batch in (wave, wave + [(0,) * problem.m]):
            batched = solve_wave(problem, batch)
            for got, want in zip(batched, [solve_wave(problem, [q])[0] for q in batch]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got[1] == want[1]
                    np.testing.assert_array_equal(got[0], want[0])
        assert problem.m == 1 or batched[-1] is None


def removals_of(found):
    return [(r.indices, r.zero_indices) for r in found]


def with_zero_weights(rule, rng, count, m=2):
    """A rule plus `count` samples at weight zero, and its M-node removal problem.

    The samples are drawn in the rule's domain; the basis is shrunk by M
    functions from the node count.
    """
    (lo, hi), = rule.spec.domain
    grown = QuadratureRule(
        nodes=np.vstack([rule.nodes, lo + (hi - lo) * rng.random((count, 1))]),
        weights=np.append(rule.weights, np.zeros(count)), spec=rule.spec, K=rule.K,
    )
    return grown, removal_problem(grown, m)


def assert_ring_weights(problem, got, want):
    """The ring's vertex weights against a vertex solve's, to 1e-13 of the weights' sum.

    The ring reaches each vertex by ratio steps, not by an inverse, so
    the two agree to rounding, not bit for bit.
    """
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * problem.w.sum())


def trace_or_walk(problem, cap=10**6):
    """The trace's removals, checked against the cold walk; None if it declined.

    Where the trace vouches it must find the walk's removals and zero sets
    exactly, and its weights to rounding, finding each vertex once; where
    it declines, `enumerate` must still return what the walk finds.
    """
    traced, solved = problem._trace(cap)
    walked = cold_walk(problem, cap)
    if traced is not None:
        assert removals_of(traced) == removals_of(walked)
        assert solved == len(walked)
        for got, want in zip(traced, walked):
            assert_ring_weights(problem, got.weights, want.weights)
    assert removals_of(all_removals(problem, cap=cap)) == removals_of(walked)
    return traced


class TestFacetScan:
    """Two-node removals by one ring walk, or by the walk where it cannot vouch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scan_is_the_walk(self, seed):
        rng = np.random.default_rng(20 + seed)
        rule = random_rule(rng, 14, 8)
        _, problem = with_zero_weights(rule, rng, 1)
        scanned, solved = problem._trace(10**6)
        walked = cold_walk(problem)
        assert removals_of(scanned) == removals_of(walked)
        assert solved == len(walked)
        for got, want in zip(scanned, walked):
            assert_ring_weights(problem, got.weights, want.weights)
            assert_ring_weights(problem, got.weights, problem.vertex_weights(got.indices))
            # the removed rows are exactly zero, as a vertex solve sets them
            assert got.weights[list(got.indices)].tolist() == [0.0, 0.0]
        # with no zero weight the trace has no start line: it declines
        # unsolved, and the walk finds the removals
        bare = removal_problem(rule, 2)
        assert bare._trace(10**6) == (None, 0)
        assert removals_of(all_removals(bare)) == removals_of(cold_walk(bare))

    def test_degenerate_polygon_takes_the_walk(self):
        # the square |a_0|, |a_1 - 1| <= 1 and the line a_0 + a_1 = 3 through
        # its corner (1, 2): three constraints meet at one vertex.  a = 0
        # lies on the zero weight's edge, so the ring starts, finds the
        # four vertices, and declines at the checks
        C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        problem = RemovalProblem.from_parts(np.array([1.0, 1.0, 2.0, 0.0, 3.0]), C)
        assert problem._trace(10**6) == (None, 4)
        got = all_removals(problem)
        assert removals_of(got) == removals_of(cold_walk(problem)) == [
            ((0, 2), (0, 2, 4)), ((0, 3), (0, 3)), ((1, 2), (1, 2)), ((1, 3), (1, 3)),
        ]

    def test_slack_above_the_residual_bound_takes_the_walk(self):
        # a long triangle: the far line's rates are 1e-8 of the others', so
        # the weight at vertex (1, 2) that comes back to zero along it is
        # 1e8 and keeps a slack of a rounding unit there, above the bound
        # 1e-10 times the weights' sum
        C = np.array([[0.0, -1.0], [-1.0, 1.0], [1e-8, 0.0]])
        problem = RemovalProblem.from_parts(np.array([0.0, 0.6, 1.0]), C)
        assert problem._trace(10**6) == (None, 3)
        # a vertex solve of (1, 2) fails its residual check too
        assert removals_of(all_removals(problem)) == removals_of(cold_walk(problem)) == [
            ((0, 1), (0, 1)), ((0, 2), (0, 2)),
        ]
        # with no bound the same ring vouches: the slack was all it failed
        problem._tol_res = np.inf
        assert [r.indices for r in problem._trace(10**6)[0]] == [(0, 1), (0, 2), (1, 2)]

    def test_the_bound_holds_the_slack_summed_round_the_ring(self):
        # zeroing a vertex's two rows moves every later vertex off
        # w + range(C), so a ring whose slacks are each within the bound
        # but not their sum must decline
        C = np.array([[0.0, -1.0], [-1.0, 1.0], [1e-8, 1e-9], [3e-9, 1e-8]])
        problem = RemovalProblem.from_parts(np.array([0.0, 0.6, 1.0, 1.0]), C)
        # the ring's steps replayed: each vertex's slack at its two rows
        E, W, line, slacks = C[:, ::-1] * (1.0, -1.0), problem.w, 0, []
        for _ in range(4):
            g = E @ C[line]
            ratios = np.divide(W, g, out=np.full(4, np.inf), where=g > 0.0)
            ratios[line] = np.inf
            j = int(ratios.argmin())
            W = W - ratios[j] * g
            slacks.append(abs(W[line]) + abs(W[j]))
            W[line] = W[j] = 0.0
            line = j
        assert line == 0 and sorted(slacks)[-2] > 0.0
        problem._tol_res = (max(slacks) + sum(slacks)) / 2
        assert problem._trace(10**6) == (None, 4)
        problem._tol_res = sum(slacks)
        assert len(problem._trace(10**6)[0]) == 4

    def test_cap_below_the_vertex_count_takes_the_walk(self):
        rng = np.random.default_rng(20)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 1)
        vertices = len(problem._trace(10**6)[0])
        assert vertices >= 3
        cap = vertices - 1
        assert problem._trace(cap)[0] is None
        stats = {}
        got = all_removals(problem, cap=cap, stats=stats)
        assert removals_of(got) == removals_of(cold_walk(problem, cap))
        assert stats["capped"]

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_weight_starts_the_trace(self, seed):
        # every problem the streaming engine builds has one: a = 0 lies on
        # the zero-weight node's line, an edge of the polygon
        rng = np.random.default_rng(30 + seed)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 1)
        assert (problem.w == 0.0).sum() == 1
        traced = trace_or_walk(problem)
        assert traced is not None and len(traced) >= 3
        # the zero-weight node is removed at the two ends of its edge
        assert sum(problem.n - 1 in r.indices for r in traced) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_two_zero_weights_make_a_0_a_vertex(self, seed):
        rng = np.random.default_rng(40 + seed)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 2)
        traced = trace_or_walk(problem)
        assert traced is not None
        zero = (problem.n - 2, problem.n - 1)
        assert zero in [r.indices for r in traced]

    # zero weights beyond the one of an engine problem; with one more,
    # a = 0 is a vertex
    @pytest.mark.parametrize("more_zeros", (0, 1))
    def test_repeated_row(self, more_zeros):
        rng = np.random.default_rng(50)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 1 + more_zeros)
        edges = {j for r in problem._trace(10**6)[0] for j in r.indices}
        declined = 0
        for j in range(problem.n):
            doubled = RemovalProblem.from_parts(
                np.append(problem.w, problem.w[j]), np.vstack([problem.C, problem.C[j]])
            )
            if j in edges:
                # both vertices of a doubled edge zero three weights
                assert doubled._trace(10**6)[0] is None
            # where the trace declines, the walk from a brute-force start
            # vertex still finds every removal
            declined += trace_or_walk(doubled) is None
        assert declined >= 1

    @pytest.mark.parametrize("more_zeros", (0, 1))
    def test_cap_at_and_below_the_vertex_count(self, more_zeros):
        rng = np.random.default_rng(60)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 1 + more_zeros)
        vertices = len(problem._trace(10**6)[0])
        assert vertices >= 3
        assert len(trace_or_walk(problem, cap=vertices)) == vertices
        assert trace_or_walk(problem, cap=vertices - 1) is None

    @pytest.mark.parametrize("w", ([1.0, 1.0, 1.0], [0.0, 1.0, 1.0]))
    def test_unbounded_region_is_declined(self, w):
        # a_0 <= w_0, a_1 <= w_1 and a_0 + a_1 <= w_2 bound no polygon: the
        # ring comes to an edge with no end; with no zero weight it has no
        # start line
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        problem = RemovalProblem.from_parts(np.array(w), C)
        assert problem._trace(10**6) == (None, 0)

    def test_scan_needs_no_seed(self):
        rng = np.random.default_rng(21)
        _, problem = with_zero_weights(random_rule(rng, 14, 8), rng, 1)
        asked = []
        problem.enumerate(lambda: asked.append(1))
        assert asked == []


class TestSeededEnumerate:
    def test_seed_that_is_no_vertex_finds_nothing(self):
        rng = np.random.default_rng(15)
        rule = random_rule(rng, 9, 5)
        problem = removal_problem(rule, 3)
        valid = brute_force_removals(rule, 3)
        bad = next(q for q in itertools.combinations(range(rule.n_nodes), 3) if q not in valid)
        assert problem.enumerate(Removal(indices=bad)) == []
        # from every vertex the walk finds the same removals and zero sets
        found = all_removals(problem)
        assert {r.indices for r in found} == valid
        for start in found:
            assert removals_of(problem.enumerate(start)) == removals_of(found)


class TestZeroWeightBase:
    """Problems with more zero weights than removal directions, as in a degenerate base."""

    @pytest.mark.parametrize("m", (2, 3))
    @pytest.mark.parametrize("seed", range(3))
    def test_removals_are_the_brute_force_ones(self, m, seed):
        rng = np.random.default_rng(70 + seed)
        for count in (m, m + 1, m + 2):
            rule, problem = with_zero_weights(random_rule(rng, 14, 6), rng, count, m)
            valid = brute_force_removals(rule, m)
            # the engine's seed: the zero-weight nodes outside the base, and
            # one zero-weight node of the base
            zero = tuple(range(problem.n - count, problem.n))
            for seed_vertex in (first_vertex(problem), Removal(zero[:m])):
                got = problem.enumerate(seed_vertex)
                assert {r.indices for r in got} <= valid
                # every removal lies in the zero set of one found
                for q in valid:
                    assert any(set(q) <= set(r.zero_indices) for r in got)
                if count == m:
                    # a = 0 is no degenerate vertex: the lists are equal
                    assert {r.indices for r in got} == valid
