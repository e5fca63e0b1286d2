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
            chain.append(extend_rule(req, selection_seed=7))
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
            out = extend_rule(req, selection_seed=3)
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
        out = extend_rule(req, selection_seed=11)
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
        base = extend_rule(ExtensionRequest(first, 5, samples, "increase_degree"), 0)
        assert base.n_nodes == 6 and (base.weights == 0.0).sum() == 1
        req = ExtensionRequest(base, 5, samples, "increase_degree")
        work, _ = initialize_extension(req)
        assert (work.weights > 0.0).all()
        # single removals bring the start to a vertex of the base, same
        # moments; the engine holds the weights as sample counts
        engine = _StreamEngine(work, np.random.default_rng(0), 10**6)
        support = np.flatnonzero(engine.w > 0.0)
        assert support.shape[0] <= 5 and np.isin(support, engine.fact_cols).all()
        count = engine.consumed
        np.testing.assert_allclose(engine.Vall @ engine.w, engine.Vall @ work.weights * count,
                                   rtol=0, atol=1e-14 * count)
        svd = svd_calls(monkeypatch)
        out = extend_rule(req, 0)
        assert svd == []
        assert node_keys(base) <= node_keys(out)
        assert out.weights.min() >= 0.0
        assert out.moment_residual(sample_moments(samples, out.spec)) <= 1e-8
        assert sorted(out.source_indices.tolist()) == [0, 5, 8, 48, 392, 397]

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
        out = extend_rule(req, selection_seed=2)
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

    def test_deterministic_for_fixed_seed(self, uniform_samples, base_rule):
        req = ExtensionRequest(
            base=base_rule,
            target_basis_size=13,
            sample_source=uniform_samples,
            mode="increase_degree",
        )
        r1 = extend_rule(req, selection_seed=5)
        r2 = extend_rule(req, selection_seed=5)
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
            chain.append(extend_rule(req, selection_seed=9))
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
        large = extend_rule(req, selection_seed=4)
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
        large = extend_rule(req, selection_seed=4)
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
        chain.append(extend_rule(req, selection_seed=1))
    return chain


# (kind, samples, basis sizes, seed): 150 M = 2, 24 M = 3 and 3 M = 4
# steps on uniform samples, 57 M = 2 and 25 M = 3 steps on rosenbrock
SEED_CORPUS = (
    ("uniform", 256, (6, 10, 15, 21), 2),
    ("rosenbrock", 200, (4, 8, 16), 0),
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
            # the same removals and zero sets, so the seeded draw picks the same
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
            extend_rule(req, selection_seed=7)
        assert info.value.sample_index is not None


# (kind, samples, basis sizes, seed) and, per level, (D - N, new nodes,
# zero-weight nodes) as measured when the bound was set: D is the target
# basis size and N the base's node count
LEVEL_CHAINS = (
    (SEED_CORPUS[0], ((4, 4, 0), (5, 5, 0), (6, 7, 1))),
    (SEED_CORPUS[1], ((4, 5, 1), (7, 7, 0))),
    (("uniform", 512, (5, 9, 17, 33, 65), 1), ((4, 4, 0), (8, 8, 0), (16, 17, 1), (31, 31, 0))),
    (("rosenbrock", 256, (5, 9, 17, 33, 65), 1),
     ((4, 4, 0), (8, 9, 1), (15, 15, 0), (32, 32, 0))),
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
    return _StreamEngine(work, np.random.default_rng(0), 10**6)


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


# (basis size, sorted source indices, weights in that order) of the chain
# built from 256 uniform samples (seed 1), schedule 4 to 32, selection seed 1
PINNED_CHAIN = (
    (5,
     [0, 1, 4, 8, 12],
     [0.18484617246633514, 0.11890657606557481, 0.33068596900667685, 0.20190647799597689,
      0.16365480446543632]),
    (9,
     [0, 1, 4, 8, 12, 22, 80, 173, 205],
     [0.05517902718058499, 0.014214598501316613, 0.16146847612359871, 0.28947373508166796,
      0.024359881909438403, 0.2319274425052256, 0.13628293932892838, 0.072949320481914,
      0.01414457888732534]),
    (17,
     [0, 1, 4, 8, 12, 22, 71, 74, 77, 80, 114, 119, 168, 173, 205, 247, 253, 255],
     [0.07925543513599943, 0.03406702012730802, 0.03585215811169342, 0.025710570280869812,
      0.034080049773721054, 0.11861886185540313, 0.07505260932475015, 0.02145087550687434,
      0.08154612845081989, 0.0, 0.05547369041981639, 0.017356469292218277,
      0.07019173156309876, 0.15515596742161822, 0.015556342229121313, 0.04758564039180861,
      0.06481456410114932, 0.06823188601372977]),
    (33,
     [0, 1, 4, 8, 10, 12, 22, 36, 60, 67, 71, 74, 77, 80, 93, 97, 105, 114, 119, 131, 158,
      159, 167, 168, 173, 192, 200, 205, 229, 238, 247, 253, 254, 255],
     [0.006364539843623211, 0.01494547978091352, 0.029389240879810232, 0.03298579823378617,
      0.06369856288448843, 0.02828779094047054, 0.0, 0.046173919480232826,
      0.045236753764034125, 0.04120698482082356, 0.03847286067202382, 0.015117828227583771,
      0.02485150698441937, 0.038588396991339084, 0.007159640539219643, 0.020169513580173312,
      0.017258940638154596, 0.02510243443934405, 0.017395091209963937, 0.01972591045116645,
      0.05264465506747687, 0.013614231556781034, 0.04937039220803891, 0.04365280261951097,
      0.07841362112833579, 0.05854344895243601, 0.006665885239821917, 0.00800897963037554,
      0.0034973293926108123, 0.0008920003105705172, 0.030968370988028737,
      0.044244979028638415, 0.014255448621238936, 0.0630966608945649]),
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
      0.4536918950712163, 0.03131170828657729, 0.07344541220284787, 0.07899307450714581,
      0.008308058354993354]),
    (17,
     [3, 4, 5, 7, 9, 19, 21, 23, 24, 37, 45, 46, 56, 147, 199, 233, 252, 253],
     [0.010305587651614458, 0.08082046896111089, 0.0, 0.06282790654238088,
      0.22624878299724763, 0.035839309115882796, 0.008993095108319103, 0.04318460331247562,
      0.12044775075092871, 0.031246500290186947, 0.03213226809877708, 0.0018963032240762404,
      0.08957344894745252, 0.015172533280427945, 0.11437928863655367, 0.03558566942666851,
      0.0020930715817495515, 0.08925341207414735]),
    (33,
     [1, 3, 4, 5, 7, 9, 10, 19, 21, 23, 24, 37, 45, 46, 47, 51, 56, 79, 99, 100, 113, 119, 122,
      138, 147, 160, 196, 199, 205, 226, 233, 252, 253],
     [0.13746620490767936, 0.004151437593981641, 0.03972208455558296, 0.01575978985198423,
      0.08317735753208583, 0.03763647259883671, 0.07904809482325523, 0.004174926459110939,
      0.005876935675309156, 0.01601499824284537, 0.0817518269405247, 0.00458022516363764,
      0.025626442477015086, 0.003759463155005285, 0.006857453674184908, 0.009074650491770558,
      0.059486418383742495, 0.04401669322010391, 0.019667224842856473, 0.002768960914459323,
      0.017769844036772828, 0.01111814135610464, 0.003992170917892234, 0.03631072636960696,
      0.0030582683613550746, 0.031003323774748417, 0.004801601920825058, 0.046057894881582594,
      0.03563085327881099, 0.007681806751676064, 0.022211058163497697, 0.001311556833808401,
      0.09843509184934726]),
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

        class NoDraw:
            def integers(self, *args):
                raise AssertionError("a tie-free step consults no draw")

        def no_null_vector(self, cols):
            raise AssertionError("a step taken from one solve needs no null vector")

        monkeypatch.setattr(ExtensionFactorization, "null_vector_extended", no_null_vector)
        engine = quadratic_engine([-1.0, 0.0, 1.0], weights, fixed)
        engine.rng = NoDraw()
        fed(engine)
        assert engine.X[:, 0].tolist() == nodes
        for a, b in ((engine.X, ref.X), (engine.w, ref.w), (engine.src, ref.src)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("weights, fixed, draws", [
        # fixed node 0 is zeroed first and alone; on the other side fixed
        # node -1 beats the sample, and the scalar step draws
        ([1 / 32, 1 / 16, 29 / 32], [True, True, False], 1),
        # fixed node -1 is zeroed first and alone; on the other side nodes
        # 0 and 1 tie, and the scalar step deletes both
        ([1 / 64, 42 / 64, 21 / 64], [True, False, False], 0),
        # fixed node 0 is zeroed first and alone, by a margin of 1e-8, but
        # that removal leaves node 1 at the drop threshold: each side
        # deletes one node, and the scalar step draws
        ([(3 - 3e-6 + 2e-14) / 3, 2e-6 * (1 - 1e-8) / 3, 1e-6 / 3], [False, True, False], 1),
    ], ids=["fixed-other-side", "tied-other-side", "threshold-own-side"])
    def test_fixed_or_tied_other_side_declines(self, weights, fixed, draws, monkeypatch):
        calls = {"single": 0, "draw": 0}
        single = _StreamEngine._single_direction

        def counted_single(self, v, col):
            calls["single"] += 1
            return single(self, v, col)

        class CountedDraw:
            def integers(self, *args):
                calls["draw"] += 1
                return 0

        monkeypatch.setattr(_StreamEngine, "_single_direction", counted_single)
        engine = quadratic_engine([-1.0, 0.0, 1.0], weights, fixed)
        engine.rng = CountedDraw()
        y = np.array([0.5])
        engine.feed(y, basis_matrix(engine.spec, y[None])[:, 0], 3)
        assert calls == {"single": 1, "draw": draws}

    def test_small_uniform_chain_is_pinned(self):
        samples = generate(DistributionSpec("uniform", 2, seed=1), 256)
        spec = BasisSpec(d=2, size=5, domain=domain_from_samples(samples.points))
        chain = [construct_fixed_rule(samples, spec)]
        for size, _, _ in PINNED_CHAIN[1:]:
            req = ExtensionRequest(chain[-1], size, samples, "increase_degree")
            chain.append(extend_rule(req, selection_seed=1))
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
            chain.append(extend_rule(req, selection_seed=1))
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
