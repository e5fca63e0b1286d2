"""Tests for nested extension of existing rules."""

import cProfile
import os
import pstats
from collections import Counter

import numpy as np
import pytest

import samplequad.nested
import samplequad.rule
from samplequad.basis import BasisSpec, basis_matrix, domain_from_samples
from samplequad.errors import (
    InsufficientSamples,
    InvalidSpec,
    MissingEvaluation,
    ModeMismatch,
    NullSpaceFailure,
)
from samplequad.linalg import ExtensionFactorization
from samplequad.nested import (
    ExtensionRequest,
    _StreamEngine,
    extend_rule,
    initialize_extension,
    nested_error_estimate,
)
from samplequad.removal import Removal, RemovalProblem
from samplequad.rule import (
    QuadratureRule,
    SampleSet,
    construct_fixed_rule,
    sample_moments,
)
from samplequad.sampling import DistributionSpec, generate
from test_removal import assert_ring_weights, brute_force_removals, first_vertex


def node_keys(rule):
    return {row.tobytes() for row in rule.nodes}


def svd_calls(monkeypatch):
    """A list that gets one entry per `np.linalg.svd` call from now on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


@pytest.fixture(scope="module")
def uniform_samples():
    rng = np.random.default_rng(100)
    return SampleSet(rng.random((3000, 2)))


@pytest.fixture(scope="module")
def base_rule(uniform_samples):
    spec = BasisSpec(d=2, size=6, domain=domain_from_samples(uniform_samples.points))
    return construct_fixed_rule(uniform_samples, spec)


class TestInitializeExtension:
    def test_continue_is_noop(self, base_rule, uniform_samples):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=base_rule.spec.size,
            sample_source=uniform_samples,
            mode="continue_samples",
        )
        work, idx = initialize_extension(req)
        np.testing.assert_array_equal(work.nodes, base_rule.nodes)
        np.testing.assert_array_equal(work.weights, base_rule.weights)
        assert work.K == base_rule.K
        assert work.fixed_mask.all()
        assert idx.shape[0] == 0

    def test_continue_rejects_changed_basis(self, base_rule, uniform_samples):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=base_rule.spec.size + 4,
            sample_source=uniform_samples,
            mode="continue_samples",
        )
        with pytest.raises(ModeMismatch):
            initialize_extension(req)

    def test_continue_rejects_different_stream(self, base_rule):
        rng = np.random.default_rng(101)
        other = SampleSet(rng.random((3000, 2)))
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=base_rule.spec.size,
            sample_source=other,
            mode="continue_samples",
        )
        with pytest.raises(ModeMismatch):
            initialize_extension(req)

    def test_increase_degree_resets_weights(self, base_rule, uniform_samples):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=12,
            sample_source=uniform_samples,
            mode="increase_degree",
        )
        work, idx = initialize_extension(req)
        n = base_rule.n_nodes
        np.testing.assert_allclose(work.weights, np.full(n, 1.0 / n))
        assert work.fixed_mask.all()
        # stream excludes the nodes already used
        assert idx.shape[0] == uniform_samples.count - n
        used = set(int(i) for i in base_rule.source_indices)
        assert used.isdisjoint(set(int(i) for i in idx))

    def test_resampled_unit_weight_on_first_sample(self, base_rule):
        rng = np.random.default_rng(102)
        fresh = SampleSet(rng.random((500, 2)))
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=base_rule.spec.size,
            sample_source=fresh,
            mode="resampled",
        )
        work, idx = initialize_extension(req)
        assert work.n_nodes == base_rule.n_nodes + 1
        np.testing.assert_array_equal(
            work.weights, np.concatenate([np.zeros(base_rule.n_nodes), [1.0]])
        )
        assert work.K == 0
        assert idx.shape[0] == 499

    def test_smaller_target_rejected(self, base_rule, uniform_samples):
        with pytest.raises(ModeMismatch):
            ExtensionRequest(
                base=base_rule,
                target_basis_size=base_rule.spec.size - 1,
                sample_source=uniform_samples,
                mode="increase_degree",
            )

    @pytest.mark.parametrize("cap", (0, -3))
    def test_removal_cap_below_one_rejected(self, cap, base_rule, uniform_samples):
        with pytest.raises(InvalidSpec, match="removal_cap must be at least 1"):
            ExtensionRequest(base_rule, 10, uniform_samples, "increase_degree", cap)
        assert ExtensionRequest(base_rule, 10, uniform_samples, "increase_degree", 1)

    @pytest.mark.parametrize("cap", (2.5, True, "many"))
    def test_removal_cap_must_be_an_integer(self, cap, base_rule, uniform_samples):
        with pytest.raises(InvalidSpec, match="removal_cap must be an integer"):
            ExtensionRequest(base_rule, 10, uniform_samples, "increase_degree", cap)
        req = ExtensionRequest(base_rule, 10, uniform_samples, "increase_degree", 3.0)
        assert req.removal_cap == 3 and type(req.removal_cap) is int


class TestExtendRule:
    @pytest.mark.parametrize("base", ["none", "zero_nodes"])
    def test_base_without_nodes_is_rejected(self, base, uniform_samples, base_rule):
        if base == "none":
            base = None
        else:
            base = QuadratureRule(
                nodes=np.empty((0, 2)), weights=np.empty(0), spec=base_rule.spec, K=0
            )
        for mode in ("continue_samples", "increase_degree", "resampled"):
            with pytest.raises(ModeMismatch, match="construct_fixed_rule"):
                ExtensionRequest(base, 10, uniform_samples, mode)

    def test_increase_degree_chain_is_nested(self, uniform_samples, base_rule):
        chain = [base_rule]
        for size in (11, 21, 41):
            req = ExtensionRequest(
                base=chain[-1],
                target_basis_size=size,
                sample_source=uniform_samples,
                mode="increase_degree",
            )
            chain.append(extend_rule(req))
        for small, large in zip(chain, chain[1:]):
            assert node_keys(small) <= node_keys(large)
            assert large.weights.min() >= -1e-12
            mu = sample_moments(uniform_samples, large.spec)
            assert large.moment_residual(mu) <= 1e-8

    def test_continue_samples_keeps_the_nodes_of_a_fixed_rule(self):
        # a fixed rule marks no node fixed; continuing it must still keep
        # every base node, or the subset validation rejects the result
        rng = np.random.default_rng(0)
        pts = rng.random((4300, 2))
        first = SampleSet(pts[:1000])
        spec = BasisSpec(d=2, size=10, domain=domain_from_samples(first.points))
        base = construct_fixed_rule(first, spec)
        source = SampleSet(pts)
        out = extend_rule(ExtensionRequest(base, 10, source, "continue_samples"))
        assert node_keys(base) <= node_keys(out)
        assert out.n_nodes == 11
        assert out.moment_residual(sample_moments(source, spec)) <= 1e-8

    def test_node_count_bound(self, uniform_samples, base_rule):
        n_base = base_rule.n_nodes - 1
        for size in (11, 26):
            req = ExtensionRequest(
                base=base_rule,
                target_basis_size=size,
                sample_source=uniform_samples,
                mode="increase_degree",
            )
            out = extend_rule(req)
            d_plus = size - 1
            n_plus_m = out.n_nodes - 1
            assert d_plus <= n_plus_m <= n_base + d_plus + 1

    def test_off_sample_fixed_nodes(self, monkeypatch):
        # nodes provided beforehand that are not samples at all
        rng = np.random.default_rng(103)
        samples = SampleSet(rng.standard_normal((100_000, 1)))
        spec = BasisSpec(d=1, size=3, domain=((-5.0, 5.0),))
        base = QuadratureRule(
            nodes=[[0.0], [0.5], [1.0]],
            weights=[1 / 3, 1 / 3, 1 / 3],
            spec=spec,
            K=2,
        )
        req = ExtensionRequest(
            base=base,
            target_basis_size=5,
            sample_source=samples,
            mode="resampled",
        )
        svd = svd_calls(monkeypatch)
        out = extend_rule(req)
        # the zero-weight base nodes complete a square base: no SVD null basis
        assert svd == []
        assert node_keys(base) <= node_keys(out)
        assert out.weights.min() >= -1e-12
        # bound: D <= N+M <= N+D+1 with N=2, D=4
        assert 4 <= out.n_nodes - 1 <= 7
        mu = sample_moments(samples, out.spec)
        assert out.moment_residual(mu) <= 1e-8

    def test_more_base_nodes_than_basis_functions(self, monkeypatch):
        # a base with a zero-weight fixed node, extended to its own size:
        # more start weights are positive than the square base can hold
        rng = np.random.default_rng(7)
        samples = SampleSet(rng.random((400, 2)))
        spec = BasisSpec(d=2, size=4, domain=domain_from_samples(samples.points))
        first = construct_fixed_rule(SampleSet(samples.points[:100]), spec)
        base = extend_rule(ExtensionRequest(first, 5, samples, "increase_degree"))
        assert base.n_nodes == 6 and (base.weights == 0.0).sum() == 1
        req = ExtensionRequest(base, 5, samples, "increase_degree")
        work, _ = initialize_extension(req)
        assert (work.weights > 0.0).all()
        # single removals bring the start to a vertex of the base, same
        # moments; the engine holds the weights as sample counts
        engine = _StreamEngine(work, 10**6)
        support = np.flatnonzero(engine.w > 0.0)
        assert support.shape[0] <= 5 and np.isin(support, engine.fact_cols).all()
        count = engine.consumed
        np.testing.assert_allclose(engine.Vall @ engine.w, engine.Vall @ work.weights * count,
                                   rtol=0, atol=1e-14 * count)
        svd = svd_calls(monkeypatch)
        out = extend_rule(req)
        assert svd == []
        assert node_keys(base) <= node_keys(out)
        assert out.weights.min() >= 0.0
        assert out.moment_residual(sample_moments(samples, out.spec)) <= 1e-8
        assert sorted(out.source_indices.tolist()) == [0, 5, 8, 48, 92, 368]

    def test_standard_normal_extension_of_three_given_nodes(self):
        # nodes 0, 1/2, 1 are a poor interpolatory set for a standard normal
        # (their plain interpolatory weights are 3, -4, 2), yet the extension
        # absorbs them and stays positive; degree-4 exactness needs ~6 nodes
        rng = np.random.default_rng(104)
        samples = SampleSet(rng.standard_normal((100_000, 1)))
        spec = BasisSpec(d=1, size=3, domain=((-5.0, 5.0),))
        base = QuadratureRule(
            nodes=[[0.0], [0.5], [1.0]],
            weights=[1 / 3, 1 / 3, 1 / 3],
            spec=spec,
            K=2,
        )
        req = ExtensionRequest(
            base=base,
            target_basis_size=5,
            sample_source=samples,
            mode="resampled",
        )
        out = extend_rule(req)
        assert node_keys(base) <= node_keys(out)
        assert out.weights.min() >= 0.0
        # bound with N=2, D=4: 4 <= N+M <= 7
        assert 5 <= out.n_nodes <= 8
        # nodes beyond the basis size can only be zero-weight fixed ones
        extra = out.n_nodes - out.spec.size
        if extra > 0:
            zero_fixed = (out.weights == 0.0) & out.fixed_mask
            assert zero_fixed.sum() >= extra
        assert out.moment_residual(sample_moments(samples, out.spec)) <= 1e-8

    def test_deterministic_for_a_fixed_request(self, uniform_samples, base_rule):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=13,
            sample_source=uniform_samples,
            mode="increase_degree",
        )
        r1 = extend_rule(req)
        r2 = extend_rule(req)
        np.testing.assert_array_equal(r1.nodes, r2.nodes)
        np.testing.assert_array_equal(r1.weights, r2.weights)

    def test_insufficient_samples(self, base_rule):
        small = SampleSet(np.random.default_rng(105).random((4, 2)))
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=20,
            sample_source=small,
            mode="resampled",
        )
        with pytest.raises(InsufficientSamples):
            extend_rule(req)

    def test_doubling_chain_subset_property(self):
        rng = np.random.default_rng(106)
        samples = SampleSet(rng.random((1500, 1)))
        dom = domain_from_samples(samples.points)
        chain = [construct_fixed_rule(samples, BasisSpec(d=1, size=2, domain=dom))]
        for size in (3, 5, 9, 17):
            req = ExtensionRequest(
                base=chain[-1],
                target_basis_size=size,
                sample_source=samples,
                mode="increase_degree",
            )
            chain.append(extend_rule(req))
        for small, large in zip(chain, chain[1:]):
            assert node_keys(small) <= node_keys(large)


class TestNestedErrorEstimate:
    def test_identical_rules_give_zero(self, base_rule):
        ev = {tuple(row): float(np.sin(row.sum())) for row in base_rule.nodes}
        assert nested_error_estimate(base_rule, base_rule, ev) == 0.0

    def test_constant_integrand_gives_zero(self, uniform_samples, base_rule):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=11,
            sample_source=uniform_samples,
            mode="increase_degree",
        )
        large = extend_rule(req)
        ev = {tuple(row): 1.0 for row in large.nodes}
        assert nested_error_estimate(base_rule, large, ev) <= 1e-12

    def test_polynomial_integrand_within_exactness(self, uniform_samples, base_rule):
        from samplequad.basis import basis_matrix

        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=11,
            sample_source=uniform_samples,
            mode="increase_degree",
        )
        large = extend_rule(req)
        rng = np.random.default_rng(107)
        coef = rng.standard_normal(base_rule.spec.size)

        def poly(x):
            return float(coef @ basis_matrix(base_rule.spec, np.asarray(x).reshape(1, -1))[:, 0])

        ev = {tuple(row): poly(row) for row in large.nodes}
        assert nested_error_estimate(base_rule, large, ev) <= 2e-8

    def test_missing_evaluation(self, base_rule):
        ev = {tuple(row): 0.0 for row in base_rule.nodes[:-1]}
        with pytest.raises(MissingEvaluation):
            nested_error_estimate(base_rule, base_rule, ev)


def _increase_degree_chain(kind, count, sizes, seed):
    """A nested chain whose extension steps have 2 to 4 removal directions."""
    samples = generate(DistributionSpec(kind, 2, seed=seed), count)
    dom = domain_from_samples(samples.points)
    chain = [construct_fixed_rule(samples, BasisSpec(d=2, size=sizes[0], domain=dom))]
    for size in sizes[1:]:
        req = ExtensionRequest(chain[-1], size, samples, "increase_degree")
        chain.append(extend_rule(req))
    return chain


# (kind, samples, basis sizes, seed): 127 M = 2 and 9 M = 3 steps on
# uniform samples, 147 M = 2 and 18 M = 3 steps on rosenbrock
SEED_CORPUS = (
    ("uniform", 256, (6, 10, 15, 21), 2),
    ("rosenbrock", 200, (4, 8, 16, 24), 0),
)


class TestSeededRemovalWalk:
    """Two-node removals come from the ring walk; larger ones from a seeded walk."""

    @pytest.mark.parametrize("case", SEED_CORPUS)
    def test_fast_path_steps_never_start_cold(self, case, monkeypatch):
        steps = []  # (M, SVDs inside the enumeration, walks)
        calls = {"svd": 0, "walk": 0}
        enumerate_, walk_, svd_ = RemovalProblem.enumerate, RemovalProblem._walk, np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd_(*args, **kwargs)

        def counting_walk(self, start, cap):
            calls["walk"] += 1
            return walk_(self, start, cap)

        def recording_enumerate(self, seed, cap=10**6, stats=None):
            calls.update(svd=0, walk=0)
            out = enumerate_(self, seed, cap=cap, stats=stats)
            steps.append((self.m, calls["svd"], calls["walk"]))
            return out

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(RemovalProblem, "_walk", counting_walk)
        monkeypatch.setattr(RemovalProblem, "enumerate", recording_enumerate)
        _increase_degree_chain(*case)
        two = [s for s in steps if s[0] == 2]
        assert two
        # the trace answers every two-node step: no SVD, no walk
        assert all(svd == 0 and walks == 0 for _, svd, walks in two)
        more = [s for s in steps if s[0] >= 3]
        assert 3 in {m for m, *_ in more}
        # a larger step walks once, from the engine's seed, without an SVD
        assert all(svd == 0 and walks == 1 for _, svd, walks in more)

    @pytest.mark.parametrize("case", SEED_CORPUS)
    def test_seeded_walk_finds_what_a_cold_walk_finds(self, case, monkeypatch):
        # the cold walk starts from a vertex found by brute force
        enumerate_ = RemovalProblem.enumerate
        sizes = set()

        def compared_enumerate(self, seed, cap=10**6, stats=None):
            out = enumerate_(self, seed, cap=cap, stats=stats)
            found, _, _ = self._walk(first_vertex(self), cap)
            cold = [found[q] for q in sorted(found)]
            # the same removals and zero sets, in the same order, so the same pick
            assert [(r.indices, r.zero_indices) for r in out] == [
                (r.indices, r.zero_indices) for r in cold
            ]
            if self.m == 2:
                scanned, _ = self._trace(cap)
                assert [(r.indices, r.zero_indices) for r in scanned] == [
                    (r.indices, r.zero_indices) for r in cold
                ]
            # a walk step keeps the weights of the batch it solved a vertex
            # in; the ring's agree with a vertex solve to rounding
            for r in out:
                if self.m == 2:
                    assert_ring_weights(self, r.weights, self.vertex_weights(r.indices))
                else:
                    np.testing.assert_array_equal(r.weights, self.vertex_weights(r.indices))
            sizes.add(self.m)
            return out

        monkeypatch.setattr(RemovalProblem, "enumerate", compared_enumerate)
        _increase_degree_chain(*case)
        assert {2, 3} <= sizes

    def test_seed_that_is_no_vertex_raises_a_typed_failure(self, monkeypatch):
        walk_seed = _StreamEngine._walk_seed
        bad_seeds = []

        def bad_seed(self, v, C, nonbase):
            # a removal listing one node twice has a singular block
            seed = walk_seed(self, v, C, nonbase)
            seed = Removal(indices=(seed.indices[0],) * len(seed.indices))
            bad_seeds.append(seed)
            return seed

        monkeypatch.setattr(_StreamEngine, "_walk_seed", bad_seed)
        with pytest.raises(NullSpaceFailure, match="found no vertex") as info:
            _increase_degree_chain(*SEED_CORPUS[1])
        assert info.value.sample_index is not None
        # only the walks of three or more nodes ask for a seed
        assert bad_seeds and all(len(seed.indices) >= 3 for seed in bad_seeds)

    def test_empty_walk_raises_a_typed_failure(self, monkeypatch, uniform_samples, base_rule):
        monkeypatch.setattr(RemovalProblem, "enumerate", lambda self, *args, **kwargs: [])
        req = ExtensionRequest(base_rule, 11, uniform_samples, "increase_degree")
        with pytest.raises(NullSpaceFailure) as info:
            extend_rule(req)
        assert info.value.sample_index is not None


# (kind, samples, basis sizes, seed) and, per level, (D - N, new nodes,
# zero-weight nodes) as measured when the bound was set: D is the target
# basis size and N the base's node count
LEVEL_CHAINS = (
    (SEED_CORPUS[0], ((4, 4, 0), (5, 5, 0), (6, 6, 0))),
    (SEED_CORPUS[1], ((4, 4, 0), (8, 8, 0), (8, 10, 2))),
    (("uniform", 512, (5, 9, 17, 33, 65), 1), ((4, 4, 0), (8, 8, 0), (16, 16, 0), (32, 33, 1))),
    (("rosenbrock", 256, (5, 9, 17, 33, 65), 1),
     ((4, 4, 0), (8, 9, 1), (15, 16, 1), (31, 31, 0))),
)


class TestNewNodesPerLevel:
    """Each level reuses the base's nodes and adds close to the D - N new ones it must."""

    @pytest.mark.parametrize("case, measured", LEVEL_CHAINS)
    def test_new_and_zero_weight_nodes_are_bounded(self, case, measured):
        # the bound N + M <= N + D + 1 allows twice the nodes; a pick that
        # deleted fewer non-fixed nodes would add new ones at every level
        chain = _increase_degree_chain(*case)
        got = []
        for base, ext in zip(chain, chain[1:]):
            old = node_keys(base)
            new = sum(row.tobytes() not in old for row in ext.nodes)
            got.append((ext.spec.size - base.n_nodes, new, int(np.count_nonzero(ext.weights == 0))))
        for dn, new, zero in got:
            assert new <= dn + 2 and zero <= 2, got
        # so every level's base has the node count it had when measured
        assert [dn for dn, _, _ in got] == [dn for dn, _, _ in measured]


def quadratic_engine(nodes, weights, fixed):
    """A stream engine on the basis 1, x, (3x^2 - 1) / 2 over d = 1 nodes.

    Nodes -1, 0 and 1 and the dyadic points between them keep the block
    solves exact, so ratio tests can tie exactly.
    """
    spec = BasisSpec(d=1, size=3, domain=((-1.0, 1.0),))
    work = QuadratureRule(
        nodes=np.array(nodes)[:, None], weights=np.array(weights), spec=spec,
        K=len(nodes) - 1, fixed_mask=np.array(fixed),
    )
    return _StreamEngine(work, 10**6)


class TestStreamGuards:
    def test_clean_swap_refuses_a_weight_near_the_drop_threshold(self):
        engine = quadratic_engine([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25], [False] * 3)
        z = np.array([2.0, 0.5, 0.0])
        W, slot = engine._tie_free(np.array([1.0, 1.0, 0.5]), z, False)
        assert slot == 0
        np.testing.assert_array_equal(W, [1.5, 0.75, 0.5])
        # the same swap would leave the last weight at 1e-15
        assert engine._tie_free(np.array([1.0, 1.0, 1e-15]), z, False) is None

    def test_drop_run_stops_at_a_swap_near_the_drop_threshold(self):
        # a repeat of node -1 wins against it (count 3 * 0.25 < 1) and
        # would leave node 1 at 3e-15: the block pass leaves it to `feed`
        weights = [0.25, 0.75 - 1e-15, 1e-15]
        engine = quadratic_engine([-1.0, 0.0, 1.0], weights, [False] * 3)
        points = np.array([[-1.0]])
        cols = basis_matrix(engine.spec, points)
        done = engine.drop_run(cols, np.array([0]), points)
        assert done == 0
        # the engine holds the weights as counts of the three samples
        np.testing.assert_array_equal(engine.w, np.multiply(weights, 3))
        assert engine.consumed == 3

    def test_tie_seed_is_a_vertex_and_the_walk_finds_every_removal(self, monkeypatch):
        # along the sample's direction (-1/8, 3/4, 3/8 at -1, 0, 1; -1 at
        # the sample 1/2) nodes 0 and 1 reach zero together: weights 2 : 1
        engine = quadratic_engine(
            [-1.0, 0.0, 1.0, 0.25, -0.5], [13 / 16, 1 / 8, 1 / 16, 0.0, 0.0],
            [False, False, False, True, True],
        )
        y = np.array([0.5])
        col = basis_matrix(engine.spec, y[None])[:, 0]
        # the weights as counts of the five samples consumed, the sample's 1
        v = np.append(engine.w, 1.0)
        C, nonbase = engine._null_basis(col, 3)
        # the seed removes the first tied node (position 1) and keeps the
        # node at 1 in the base, at weight zero: a degenerate vertex
        seed = engine._walk_seed(v, C, nonbase)
        assert seed.indices == (1, 3, 4)
        problem = RemovalProblem.from_parts(v, C)
        W, _, bad = problem._vertices(np.array([seed.indices]))
        assert not bad[0]
        assert np.flatnonzero(W[0] <= 0.0).tolist() == [1, 2, 3, 4]
        rule = QuadratureRule(
            nodes=np.vstack([engine.X, y]), weights=v / 6, spec=engine.spec, K=5,
        )
        valid = brute_force_removals(rule, 3)
        assert {r.indices for r in problem.enumerate(seed)} == valid
        enumerate_ = RemovalProblem.enumerate
        steps = []

        def compared_enumerate(self, seed, cap=10**6, stats=None):
            out = enumerate_(self, seed, cap=cap, stats=stats)
            found, _, _ = self._walk(first_vertex(self), cap)
            assert [(r.indices, r.zero_indices) for r in out] == [
                (found[q].indices, found[q].zero_indices) for q in sorted(found)
            ]
            steps.append(self.m)
            return out

        monkeypatch.setattr(RemovalProblem, "enumerate", compared_enumerate)
        engine.feed(y, col, 5)
        assert steps == [3]


class TestTieRule:
    """Of the removals deleting the most non-fixed nodes, the pick leaves the
    largest smallest positive fixed-node weight; an exact tie goes to the first."""

    @staticmethod
    def picks(monkeypatch, nodes, weights, fixed):
        """Each pick as y = 1/2 is fed: the candidates, and the pick from each
        rotation of their list and from the reversed list."""
        picks, pick = [], _StreamEngine._pick

        def recorded(self, cands):
            orders = [cands[k:] + cands[:k] for k in range(len(cands))] + [cands[::-1]]
            picks.append((cands, orders, [pick(self, order) for order in orders]))
            return picks[-1][2][0]

        monkeypatch.setattr(_StreamEngine, "_pick", recorded)
        engine = quadratic_engine(nodes, weights, fixed)
        y = np.array([0.5])
        engine.feed(y, basis_matrix(engine.spec, y[None])[:, 0], engine.consumed)
        return picks

    def test_single_direction_keeps_the_larger_fixed_weight(self, monkeypatch):
        # each side zeroes one fixed node and deletes nothing; the positive
        # side leaves fixed node -1 at 1/8 of a sample, the negative side
        # fixed node 0 at 3/4, so the negative side wins in either order
        ((cands, _, picked),) = self.picks(
            monkeypatch, [-1.0, 0.0, 1.0], [1 / 32, 1 / 16, 29 / 32], [True, True, False])
        assert [zeroed for _, zeroed, _ in cands] == [[1], [0]]
        np.testing.assert_allclose([u[:2] for u, _, _ in cands], [[0.125, 0.0], [0.0, 0.75]],
                                   rtol=1e-15, atol=0)
        assert all(pick is cands[1] for pick in picked)

    def test_multi_direction_breaks_exact_ties_by_order(self, monkeypatch):
        # the five-node engine of the walk-seed test: six of its seven
        # removals delete two non-fixed nodes (the seventh only the
        # sample).  Four are one degenerate vertex that zeroes both fixed
        # nodes (no positive fixed weight), and two leave a fixed node
        # positive; in every order the first of the four listed wins
        ((cands, orders, picked),) = self.picks(
            monkeypatch, [-1.0, 0.0, 1.0, 0.25, -0.5], [13 / 16, 1 / 8, 1 / 16, 0.0, 0.0],
            [False, False, False, True, True])
        tied = [removed for _, zeroed, removed in cands if zeroed == [1, 2, 3, 4]]
        assert tied == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        others = {removed for _, _, removed in cands} - set(tied)
        assert others == {(1, 3, 5), (1, 4, 5), (3, 4, 5)}
        for order, pick in zip(orders, picked, strict=True):
            assert pick is next(cand for cand in order if cand[2] in tied)
        assert picked[0][2] == (1, 2, 3) and picked[-1][2] == (2, 3, 4)


# (basis size, sorted source indices, weights in that order) of the chain
# built from 256 uniform samples (seed 1), schedule 4 to 32
PINNED_CHAIN = (
    (5,
     [0, 1, 4, 8, 12],
     [0.18484617246633514, 0.11890657606557481, 0.33068596900667685, 0.20190647799597689,
      0.16365480446543632]),
    (9,
     [0, 1, 4, 8, 12, 22, 80, 173, 205],
     [0.055179027180585045, 0.014214598501316627, 0.1614684761235987, 0.28947373508166796,
      0.024359881909438424, 0.2319274425052255, 0.13628293932892832, 0.07294932048191406,
      0.014144578887325353]),
    (17,
     [0, 1, 4, 8, 12, 13, 22, 43, 77, 80, 106, 162, 164, 173, 181, 205, 231],
     [0.014677222232374687, 0.02979729274868882, 0.015389855636004637, 0.12672565558678753,
      0.0252040130356228, 0.05810907634853882, 0.02874041488763223, 0.10308118906563486,
      0.07134271785294535, 0.05493317141148833, 0.034628151685022736, 0.07329702346634925,
      0.044087086588563966, 0.1802818165097443, 0.09850781785208516, 0.025038533992016675,
      0.016158961100499834]),
    (33,
     [0, 1, 4, 8, 12, 13, 22, 34, 43, 77, 80, 85, 92, 93, 106, 118, 132, 142, 161, 162, 164, 173,
      181, 192, 194, 200, 205, 222, 227, 231, 232, 252, 254],
     [0.02668752429845574, 0.03862069021553118, 0.027347617073592078, 0.028943002914659444,
      0.02839067358686271, 0.07358995286775907, 0.04797820191320659, 0.016980283821407243,
      0.022546967984106936, 0.0005989030817750483, 0.009503598450461538, 0.05970376972822618,
      0.022779833847453152, 0.015097396976164537, 0.06873850076290985, 0.024880602064704882,
      0.035231769083276354, 0.015513889447930265, 0.004634030756242108, 0.02584239303117438,
      0.03136304647429897, 0.04931304836261745, 0.03054621968821475, 0.07232559556325038,
      0.03615997651891494, 0.004852272303274273, 0.006605409027808043, 0.013232376574541632,
      0.025897911710418452, 0.022434847079802225, 0.08940888255272042, 0.013169723804536937,
      0.011081088433702195]),
)


# the same for 256 rosenbrock (MH) samples, seed 1, schedule 4 to 32: the
# ill-conditioned case, where refined and fallback solves move the
# weights by rounding, so only the node sets are exact
PINNED_ROSENBROCK_CHAIN = (
    (5,
     [4, 5, 9, 23, 46],
     [0.08960287856645016, 0.1955184197652377, 0.5854459191836001, 0.09213621315456669,
      0.03729656933014537]),
    (9,
     [3, 4, 5, 7, 9, 21, 23, 45, 46],
     [0.010341054357264335, 0.05161961856619799, 0.08769350089539145, 0.20459567775836562,
      0.4536918950712163, 0.03131170828657729, 0.07344541220284787, 0.0789930745071458,
      0.008308058354993354]),
    (17,
     [3, 4, 5, 7, 9, 19, 21, 23, 24, 37, 45, 46, 56, 147, 199, 233, 252, 254],
     [0.0101101535746142, 0.08907447340257194, 0.027774309856273226, 0.08664387110163788,
      0.24246558802543028, 0.08121339990332406, 0.006475687223987639, 0.017496986048106098,
      0.1524731198126662, 0.036200907227139596, 0.040503490901361315, 0.0, 0.06317386932447333,
      0.019359619212077194, 0.06818644716563001, 0.006339592868542202, 0.002322553919103219,
      0.05018593043306161]),
    (33,
     [2, 3, 4, 5, 7, 9, 18, 19, 21, 23, 24, 37, 45, 46, 47, 56, 100, 113, 120, 122, 132, 133, 147,
      175, 196, 197, 199, 203, 220, 227, 233, 252, 253, 254],
     [0.007380086846093868, 0.00337623068503047, 0.022420798222801765, 0.0034039387519870694,
      0.03246776152299934, 0.1473641231573618, 0.029550560544462538, 0.03451791084649681,
      0.005017919645065752, 0.015004102394016188, 0.09760770515994738, 0.018219468997619934,
      0.01546841983234157, 0.003917997105379396, 0.004236884404170244, 0.07685462098343131,
      0.003911040092038901, 0.009834141078371772, 0.01155624543824141, 0.004070147789564055,
      0.0384318000889733, 0.06678282226270374, 0.0037999074463854524, 0.00519687913190477,
      0.001929274655667375, 0.013878303867688156, 0.027388272909009522, 0.0413064471028875,
      0.1647449533307901, 0.012826500241317701, 0.06058749321163207, 0.003509753994577969,
      0.013437488259040682, 0.0]),
)


class TestScalarStep:
    def test_one_ratio_scan_per_single_direction_step(self, monkeypatch):
        # each step reads both removals and their zeroed nodes off one
        # scan, `removal_interval`, called from the engine or from
        # `choose_alpha`; where the first removal zeroes a fixed node, only
        # the other side's candidate is built on top
        steps = []  # (ratio scans, both removals priced)
        counts = {"scan": 0, "pick": 0}
        scan = samplequad.rule.removal_interval
        single, pick = _StreamEngine._single_direction, _StreamEngine._pick

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        def recorded_single(self, v, col):
            counts.update(scan=0, pick=0)
            out = single(self, v, col)
            steps.append((counts["scan"], counts["pick"] > 0))
            return out

        for module in (samplequad.nested, samplequad.rule):
            monkeypatch.setattr(module, "removal_interval", counted("scan", scan))
        monkeypatch.setattr(_StreamEngine, "_pick", counted("pick", pick))
        monkeypatch.setattr(_StreamEngine, "_single_direction", recorded_single)
        _increase_degree_chain(*SEED_CORPUS[0])
        assert sum(priced for _, priced in steps) >= 10
        assert {scans for scans, _ in steps} == {1}

    def test_each_scalar_step_solves_its_column_once(self, monkeypatch):
        # a single-direction step that the lean step takes makes one
        # `solve` call and no `null_vector_extended` call; one it declines
        # takes its null direction from `null_vector_extended`, whose
        # `solve` call is the second; the block pass that stopped at the
        # sample hands nothing on
        steps = []  # (single direction, null_vector_extended calls, solve calls)
        current = []
        solve, null_vec, feed = (ExtensionFactorization.solve,
                                 ExtensionFactorization.null_vector_extended, _StreamEngine.feed)

        def counted(i, fn):
            def wrapper(self, cols):
                if current:
                    current[-1][i] += 1
                return fn(self, cols)
            return wrapper

        def recorded_feed(self, *args):
            current.append([self.n == self.spec.size, 0, 0])
            feed(self, *args)
            steps.append(tuple(current.pop()))

        monkeypatch.setattr(ExtensionFactorization, "solve", counted(2, solve))
        monkeypatch.setattr(ExtensionFactorization, "null_vector_extended", counted(1, null_vec))
        monkeypatch.setattr(_StreamEngine, "feed", recorded_feed)
        _increase_degree_chain(*SEED_CORPUS[0])
        single = [step[1:] for step in steps if step[0]]
        assert single.count((0, 1)) >= 10 and single.count((1, 2)) >= 10
        assert set(single) == {(0, 1), (1, 2)}

    # y = 1/2 solves V_S z = phi(y) with z = (-1/8, 3/4, 3/8) at nodes -1, 0, 1
    @pytest.mark.parametrize("weights, fixed, nodes", [
        # fixed node 0 is zeroed first and alone; on the other side the
        # sample beats node -1: a drop
        ([1 / 2, 1 / 8, 3 / 8], [False, True, False], [-1.0, 0.0, 1.0]),
        # fixed node -1 is zeroed first and alone, before the sample; on
        # the other side node 0 beats node 1: a swap
        ([1 / 64, 1 / 2, 31 / 64], [True, False, False], [-1.0, 0.5, 1.0]),
    ], ids=["drop", "swap"])
    def test_fixed_winner_alone_takes_the_other_side(self, weights, fixed, nodes, monkeypatch):
        y = np.array([0.5])

        def fed(engine):
            engine.feed(y, basis_matrix(engine.spec, y[None])[:, 0], 3)
            return engine

        with monkeypatch.context() as patch:
            patch.setattr(_StreamEngine, "_lean_step", lambda self, *args: False)
            ref = fed(quadratic_engine([-1.0, 0.0, 1.0], weights, fixed))

        def no_null_vector(self, cols):
            raise AssertionError("a step taken from one solve needs no null vector")

        def no_pick(self, cands):
            raise AssertionError("a tie-free step prices no second removal")

        monkeypatch.setattr(ExtensionFactorization, "null_vector_extended", no_null_vector)
        monkeypatch.setattr(_StreamEngine, "_pick", no_pick)
        engine = quadratic_engine([-1.0, 0.0, 1.0], weights, fixed)
        fed(engine)
        assert engine.X[:, 0].tolist() == nodes
        for a, b in ((engine.X, ref.X), (engine.w, ref.w), (engine.src, ref.src)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("weights, fixed, ties, kept", [
        # fixed node 0 is zeroed first and alone; on the other side fixed
        # node -1 beats the sample: a tie, which keeps node 0 at 3/4 of
        # a sample rather than node -1 at 1/8
        ([1 / 32, 1 / 16, 29 / 32], [True, True, False], 1, [0.0, 0.75, 3.0, 0.25]),
        # fixed node -1 is zeroed first and alone; on the other side nodes
        # 0 and 1 tie, and the scalar step deletes both
        ([1 / 64, 42 / 64, 21 / 64], [True, False, False], 0, [3 / 8, 29 / 8]),
        # fixed node 0 is zeroed first and alone, by a margin of 1e-8, but
        # that removal leaves node 1 at the drop threshold: each side
        # deletes one node, and the tie goes to the side that leaves no
        # fixed node positive
        ([(3 - 3e-6 + 2e-14) / 3, 2e-6 * (1 - 1e-8) / 3, 1e-6 / 3], [False, True, False], 1,
         [3 - 8e-6 / 3, 0.0, 1 + 8e-6 / 3]),
    ], ids=["fixed-other-side", "tied-other-side", "threshold-own-side"])
    def test_fixed_or_tied_other_side_declines(self, weights, fixed, ties, kept, monkeypatch):
        calls = {"single": 0, "tie": 0}
        single, pick = _StreamEngine._single_direction, _StreamEngine._pick

        def counted_single(self, v, col):
            calls["single"] += 1
            return single(self, v, col)

        def counted_pick(self, cands):
            calls["tie"] += len({len(self._deletable(cand[1])) for cand in cands}) == 1
            return pick(self, cands)

        monkeypatch.setattr(_StreamEngine, "_single_direction", counted_single)
        monkeypatch.setattr(_StreamEngine, "_pick", counted_pick)
        engine = quadratic_engine([-1.0, 0.0, 1.0], weights, fixed)
        y = np.array([0.5])
        engine.feed(y, basis_matrix(engine.spec, y[None])[:, 0], 3)
        assert calls == {"single": 1, "tie": ties}
        np.testing.assert_allclose(engine.w, kept, rtol=1e-12, atol=0)

    def test_small_uniform_chain_is_pinned(self):
        samples = generate(DistributionSpec("uniform", 2, seed=1), 256)
        spec = BasisSpec(d=2, size=5, domain=domain_from_samples(samples.points))
        chain = [construct_fixed_rule(samples, spec)]
        for size, _, _ in PINNED_CHAIN[1:]:
            req = ExtensionRequest(chain[-1], size, samples, "increase_degree")
            chain.append(extend_rule(req))
        for rule, (size, source, weights) in zip(chain, PINNED_CHAIN):
            order = np.argsort(rule.source_indices)
            assert rule.spec.size == size
            assert rule.source_indices[order].tolist() == source
            np.testing.assert_allclose(rule.weights[order], weights, rtol=0, atol=1e-12)

    def test_small_rosenbrock_chain_is_pinned(self):
        samples = generate(DistributionSpec("rosenbrock", 2, seed=1), 256)
        spec = BasisSpec(d=2, size=5, domain=domain_from_samples(samples.points))
        chain = [construct_fixed_rule(samples, spec)]
        for size, _, _ in PINNED_ROSENBROCK_CHAIN[1:]:
            req = ExtensionRequest(chain[-1], size, samples, "increase_degree")
            chain.append(extend_rule(req))
        for rule, (size, source, weights) in zip(chain, PINNED_ROSENBROCK_CHAIN):
            order = np.argsort(rule.source_indices)
            assert rule.spec.size == size
            assert rule.source_indices[order].tolist() == source
            # zero weights stay exactly zero; the others move by rounding
            np.testing.assert_allclose(rule.weights[order], weights, rtol=1e-8, atol=0)


class TestStepDispatch:
    """The step loop reduces its 1-D arrays through the `linalg` arg-reduction helpers."""

    METHODS = {f"<method '{m}' of 'numpy.ndarray' objects>" for m in ("max", "min", "any", "all",
                                                                     "sum")}
    WRAPPERS = {"all", "any", "full", "ones", "searchsorted"}
    # the scalar step, the block pass, the ratio scan and the M = 2 trace
    STEP = {"_lean_step", "drop_run", "_tie_free", "_first_zeroed", "_step_weights", "_apply",
            "_null_basis", "solve", "null_vector_extended", "replace_column", "removal_interval",
            "dropped_mask", "_trace"}

    def test_reductions_per_streamed_sample_are_bounded(self):
        """Calls from the package to ufunc reductions and numpy's Python wrappers.

        On SEED_CORPUS[0] (4 x 256 streamed samples) the engine read 4.81
        calls per streamed sample with `ndarray.max`/`.min`/`.any`/`.all`
        on every step, and reads 1.17 with the helpers: what is left are
        the axis reductions of the vertex batches and the block pass.  The
        bound has about 2x slack; a numpy that no longer routes these
        calls through Python passes.
        """
        package = os.path.dirname(samplequad.nested.__file__)
        numpy_dir = os.path.dirname(np.__file__)
        profile = cProfile.Profile()
        profile.enable()
        chain = _increase_degree_chain(*SEED_CORPUS[0])
        profile.disable()
        calls = Counter()
        for (path, _, name), (*_, callers) in pstats.Stats(profile).stats.items():
            if path == "~" and name in self.METHODS or path.startswith(numpy_dir) and (
                    name in self.WRAPPERS):
                for (caller_path, _, caller), counts in callers.items():
                    if caller_path.startswith(package):
                        calls[caller] += counts[0]
        streamed = SEED_CORPUS[0][1] * len(chain)
        assert sum(calls.values()) <= 2.4 * streamed, calls
        assert not self.STEP & set(calls), calls
