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
    sub = BasisSpec(
        d=rule.spec.d, size=n - m, family=rule.spec.family, domain=rule.spec.domain
    )
    V = basis_matrix(sub, rule.nodes)
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
    return RemovalProblem.from_parts(V, rule.weights, null_space(V, m))


def neighbors(problem, indices):
    """The exchange partners of one vertex, as the walk computes them."""
    _, partners = problem._pop_single(tuple(indices))
    return partners


class TestFindInitialRemoval:
    def test_one_removal_is_one_of_the_two(self):
        rng = np.random.default_rng(0)
        rule = random_rule(rng, 9, 4)
        rem = removal_problem(rule, 1).initial()
        assert rem.indices in brute_force_removals(rule, 1)

    def test_remove_all_but_one(self):
        # guard case: only the single remaining node carries weight one
        rng = np.random.default_rng(1)
        rule = random_rule(rng, 7, 4)
        n = rule.n_nodes
        rem = removal_problem(rule, n - 1).initial()
        assert len(rem.indices) == n - 1
        keep = [i for i in range(n) if i not in rem.indices]
        assert len(keep) == 1

    def test_two_removal_in_brute_force_set(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rule = random_rule(rng, int(rng.integers(7, 10)), 5)
            rem = removal_problem(rule, 2).initial()
            assert rem.indices in brute_force_removals(rule, 2)


class TestNeighbor:
    def test_involution(self):
        rng = np.random.default_rng(3)
        rule = random_rule(rng, 9, 5)
        problem = removal_problem(rule, 2)
        rem = problem.initial().indices
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
        rem = problem.initial().indices
        (other,) = neighbors(problem, rem)
        assert {rem, other} == both

    def test_neighbor_is_valid_removal(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rule = random_rule(rng, 9, 5)
            problem = removal_problem(rule, 2)
            out = neighbors(problem, problem.initial().indices)
            assert out[0] in brute_force_removals(rule, 2)

    def test_singular_block_is_not_a_vertex(self):
        # removing the same node twice gives a singular block, which must
        # fail the vertex solve rather than be solved in least squares
        rng = np.random.default_rng(0)
        problem = removal_problem(random_rule(rng, 9, 5), 2)
        with pytest.raises(NullSpaceFailure):
            problem._pop_data((0, 0))
        assert problem._pop_single((0, 0)) is None


class TestEnumerateRemovals:
    def test_exactly_two_one_removals(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rule = random_rule(rng, int(rng.integers(6, 12)), int(rng.integers(3, 6)))
            removals = removal_problem(rule, 1).enumerate()
            assert len(removals) == 2

    def test_equals_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            size = int(rng.integers(3, 5))
            rule = random_rule(rng, int(rng.integers(6, 9)), size)
            for m in (1, 2, 3):
                if m >= rule.n_nodes:
                    continue
                got = {r.indices for r in removal_problem(rule, m).enumerate()}
                assert got == brute_force_removals(rule, m)

    def test_every_removal_validates_independently(self):
        rng = np.random.default_rng(8)
        rule = random_rule(rng, 9, 5)
        sub = BasisSpec(d=1, size=rule.n_nodes - 2, domain=rule.spec.domain)
        V = basis_matrix(sub, rule.nodes)
        mu = V @ rule.weights
        for rem in removal_problem(rule, 2).enumerate():
            keep = [i for i in range(rule.n_nodes) if i not in rem.indices]
            w = np.linalg.solve(V[:, keep], mu)
            assert w.min() >= -1e-11
            assert np.abs(V[:, keep] @ w - mu).max() <= 1e-9

    def test_independent_of_initial_removal(self):
        rng = np.random.default_rng(9)
        rule = random_rule(rng, 9, 5)
        removals = removal_problem(rule, 2).enumerate()
        assert len(removals) >= 2
        for start in removals[:3]:
            again = removal_problem(rule, 2).enumerate(initial=start)
            assert [r.indices for r in again] == [r.indices for r in removals]

    def test_symmetric_rule_enumeration_closed_under_mirror(self):
        # weights and nodes symmetric about zero: degenerate vertices with
        # two simultaneous zeros appear, and removals are canonicalized over
        # their actual zero set; the zero sets must map to themselves under
        # index reversal and cover the brute-force set
        nodes = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        weights = np.array([0.15, 0.2, 0.3, 0.2, 0.15])
        spec = BasisSpec(d=1, size=5, family="monomial", domain=((-1.0, 1.0),))
        rule = QuadratureRule(nodes=nodes, weights=weights, spec=spec, K=4)
        for m in (1, 2):
            removals = removal_problem(rule, m).enumerate()
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
            m = 2
            stats = {}
            removals = removal_problem(rule, m).enumerate(stats=stats)
            z = len(removals)
            assert stats["pops"] <= z + m + 1
            assert stats["solves"] <= (m + 1) * (z + m + 1)

    def test_cap_partial_returns_valid_subset(self):
        rng = np.random.default_rng(12)
        rule = random_rule(rng, 10, 5)
        full = {r.indices for r in removal_problem(rule, 3).enumerate()}
        prob = removal_problem(rule, 3)
        stats = {}
        partial = prob.enumerate(cap=3, stats=stats)
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
    spec = BasisSpec(d=1, size=5, family="monomial", domain=((-1.0, 1.0),))
    return QuadratureRule(nodes=nodes, weights=weights, spec=spec, K=4)


def wave_cases():
    rng = np.random.default_rng(14)
    for m in (2, 3, 4):
        for _ in range(3):
            rule = random_rule(rng, 12, 8)
            yield removal_problem(rule, m)
    for m in (1, 2, 3):
        yield removal_problem(symmetric_rule(), m)


class TestProcessWave:
    @pytest.mark.parametrize("problem", list(wave_cases()))
    def test_batch_matches_one_vertex_at_a_time(self, problem):
        # every vertex, plus index sets that are no vertex
        wave = [r.indices for r in problem.enumerate()]
        wave += [q for q in itertools.combinations(range(problem.n), problem.m)
                 if q not in wave][:6]
        for got, want in zip(problem._process_wave(wave), [problem._pop_single(q) for q in wave]):
            assert (got is None) == (want is None)
            if want is not None:
                assert got[1] == want[1]
                np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)


class TestSeededEnumerate:
    def test_seed_that_is_no_vertex_falls_back_to_initial(self, monkeypatch):
        rng = np.random.default_rng(15)
        rule = random_rule(rng, 9, 5)
        problem = removal_problem(rule, 2)
        cold = problem.enumerate()
        valid = brute_force_removals(rule, 2)
        bad = next(q for q in itertools.combinations(range(rule.n_nodes), 2) if q not in valid)
        calls = []
        initial = RemovalProblem.initial
        monkeypatch.setattr(RemovalProblem, "initial", lambda self: calls.append(1) or initial(self))
        again = problem.enumerate(initial=Removal(indices=bad))
        assert calls == [1]
        assert [(r.indices, r.zero_indices) for r in again] == [
            (r.indices, r.zero_indices) for r in cold
        ]
        # a seed that is a vertex needs no cold start
        problem.enumerate(initial=cold[-1])
        assert calls == [1]
