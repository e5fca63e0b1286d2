"""Tests for the rule data model, moments, and fixed-rule construction."""

import itertools
import json

import numpy as np
import pytest

from samplequad.basis import BasisSpec, basis_matrix, domain_from_samples
from samplequad.errors import (
    DegenerateNullVector,
    DimensionMismatch,
    InsufficientSamples,
    InvalidSpec,
)
from samplequad.linalg import null_vector
from samplequad.nested import (
    ExtensionRequest,
    _StreamEngine,
    extend_rule,
    initialize_extension,
)
from samplequad.rule import (
    MomentVector,
    QuadratureRule,
    SampleSet,
    apply_removal,
    choose_alpha,
    construct_fixed_rule,
    dropped_mask,
    removal_interval,
    sample_moments,
)
from samplequad.sampling import DistributionSpec, generate
from test_nested import SEED_CORPUS, _increase_degree_chain, svd_calls


def spec_1d(size, lo=-1.0, hi=1.0):
    return BasisSpec(d=1, size=size, domain=((lo, hi),))


def legendre_spec(d, size, dom):
    return BasisSpec(d=d, size=size, domain=dom)


def _feed_one(rule, y):
    """The rule after the engine's scalar step consumes `y` below capacity."""
    engine = _StreamEngine(rule, 10**6)
    engine.feed(np.asarray(y, dtype=float), basis_matrix(rule.spec, [y])[:, 0], rule.K + 1)
    return engine.rule()


def _remove_one(rule, c):
    """The engine's single removal along `c`, survivors renormalized."""
    alpha, attained = choose_alpha(rule.weights, c)
    w_new = apply_removal(rule.weights, c, alpha, attained)
    keep = ~dropped_mask(w_new)
    w = w_new[keep]
    return QuadratureRule(
        nodes=rule.nodes[keep], weights=w / w.sum(), spec=rule.spec, K=rule.K,
        source_indices=rule.source_indices[keep], fixed_mask=rule.fixed_mask[keep],
    )


class TestSampleSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        pts = np.random.default_rng(0).random((500, 2))
        pts[123, 1] = bad
        with pytest.raises(InvalidSpec, match="finite"):
            SampleSet(pts)

    def test_zero_columns_rejected(self):
        with pytest.raises(DimensionMismatch, match="d >= 1"):
            SampleSet(np.empty((5, 0)))


class TestSampleMoments:
    def test_constant_moment_is_exactly_one(self):
        rng = np.random.default_rng(0)
        ss = SampleSet(rng.random((1234, 3)))
        spec = BasisSpec(d=3, size=10, domain=((0.0, 1.0),) * 3)
        mu = sample_moments(ss, spec)
        assert mu.values[0] == 1.0
        assert mu.K == 1233

    def test_mean(self):
        ss = SampleSet(np.array([[0.0], [1.0]]))
        mu = sample_moments(ss, spec_1d(2))
        assert mu.values[1] == 0.5

    def test_second_raw_moment(self):
        ss = SampleSet(np.array([[0.0], [0.25], [0.5], [0.75], [1.0]]))
        mu = sample_moments(ss, spec_1d(3))
        # P_2 = (3x^2 - 1) / 2 of the raw second moment 0.375
        assert mu.values[2] == pytest.approx((3 * 0.375 - 1) / 2, abs=1e-15)

    def test_matches_plain_average_on_large_set(self):
        rng = np.random.default_rng(1)
        ss = SampleSet(rng.random((20000, 2)))
        spec = BasisSpec(d=2, size=15, domain=((0.0, 1.0),) * 2)
        mu = sample_moments(ss, spec)
        direct = basis_matrix(spec, ss.points).mean(axis=1)
        np.testing.assert_allclose(mu.values, direct, atol=1e-13)


class TestAddSample:
    # the basis is larger than the rule, so the step only appends
    def test_first_addition_halves(self):
        rule = QuadratureRule(
            nodes=[[0.3]], weights=[1.0], spec=spec_1d(2), K=0
        )
        bigger = _feed_one(rule, [0.9])
        np.testing.assert_allclose(bigger.weights, [0.5, 0.5])
        assert bigger.K == 1

    def test_weight_sum_preserved(self):
        rng = np.random.default_rng(2)
        w = rng.random(10)
        w /= w.sum()
        rule = QuadratureRule(
            nodes=rng.random((10, 1)), weights=w, spec=spec_1d(11), K=9
        )
        assert _feed_one(rule, [0.5]).weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_moment_update_matches_fresh_average(self):
        rng = np.random.default_rng(3)
        pts = rng.random((6, 1))
        spec = spec_1d(6, 0.0, 1.0)
        ss5 = SampleSet(pts[:5])
        mu5 = sample_moments(ss5, spec)
        # a rule that reproduces mu5 exactly: the Monte Carlo rule itself
        rule = QuadratureRule(
            nodes=pts[:5], weights=np.full(5, 0.2), spec=spec, K=4
        )
        extended = _feed_one(rule, pts[5])
        mu6 = sample_moments(SampleSet(pts), spec)
        assert extended.moment_residual(mu6) <= 1e-14
        assert rule.moment_residual(mu5) <= 1e-14


class TestSelectAlpha:
    # the two removals at the ends of `removal_interval` for weights >= 0:
    # alpha_max zeroes the nodes it lists on the positive side, alpha_min
    # those on the negative side
    def test_two_entry_ratios(self):
        v = np.full(3, 1.0 / 3.0)
        c = np.array([1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0])
        a2, at2, a1, at1 = removal_interval(v, c)
        assert a1 == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-15)
        assert (at1.tolist(), at2.tolist()) == ([0], [1])
        assert a2 == pytest.approx(-np.sqrt(2.0) / 3.0, abs=1e-15)

    def test_zero_weight_gives_zero_alpha(self):
        v = np.array([0.0, 0.5, 0.5])
        c = np.array([0.5, 0.3, -0.8])
        _, _, a1, at1 = removal_interval(v, c)
        assert a1 == 0.0 and at1.tolist() == [0]

    def test_every_node_attaining_an_end_is_listed(self):
        v = np.array([0.25, 0.5, 0.25, 0.5])
        c = np.array([0.5, 1.0, -0.5, -0.25])
        a_min, at_min, a_max, at_max = removal_interval(v, c)
        assert (a_max, at_max.tolist()) == (0.5, [0, 1])
        assert (a_min, at_min.tolist()) == (-0.5, [2])

    def test_removal_keeps_weights_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.random(8)
            c = rng.standard_normal(8)
            c -= c.mean()  # zero-sum, both signs present
            a2, at2, a1, at1 = removal_interval(v, c)
            for alpha, at in ((a1, at1), (a2, at2)):
                w = v - alpha * c
                assert w.min() >= -1e-12 * max(1.0, np.abs(w).max())
                assert at.size and np.abs(w[at]).max() <= 1e-12

    def test_degenerate_vector_rejected(self):
        with pytest.raises(DegenerateNullVector):
            removal_interval(np.array([0.5, 0.5]), np.array([1.0, 2.0]))


class TestRemovalInterval:
    def test_positive_weights_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.random(6)
            c = rng.standard_normal(6)
            c -= c.mean()
            a_min, _, a_max, _ = removal_interval(w, c)
            assert a_min <= 0.0 <= a_max

    def test_hand_computed_equal_endpoints(self):
        w = np.array([1.0, -1.0])
        c = np.array([1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)])
        a_min, _, a_max, _ = removal_interval(w, c)
        assert a_min == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert a_max == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_infeasible_case_matches_exhaustive_oracle(self):
        # weights with a negative entry where no single deletion can help
        spec = spec_1d(2)
        nodes = np.array([[0.0], [1.0], [2.0]])
        w = np.array([-0.5, 0.5, 1.0])
        V = basis_matrix(spec, nodes)
        mu = V @ w
        c = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        a_min, _, a_max, _ = removal_interval(w, c)
        assert a_max < a_min
        # oracle: deleting any single node leaves a negative weight
        for drop in range(3):
            keep = [i for i in range(3) if i != drop]
            sub = np.linalg.solve(basis_matrix(spec, nodes[keep]), mu)
            assert sub.min() < 0


class TestRemoveOne:
    def test_duplicate_nodes_merge(self):
        spec = spec_1d(1)
        rule = QuadratureRule(
            nodes=[[0.4], [0.4], [0.8]],
            weights=[0.3, 0.3, 0.4],
            spec=spec,
            K=2,
        )
        c = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        out = _remove_one(rule, c)
        assert out.n_nodes == 2
        np.testing.assert_allclose(sorted(out.weights), [0.4, 0.6], atol=1e-15)

    def test_generic_case_removes_exactly_one(self):
        rng = np.random.default_rng(6)
        pts = rng.random((7, 1))
        spec = legendre_spec(1, 5, domain_from_samples(pts))
        rule = construct_fixed_rule(SampleSet(pts[:6]), spec)
        # the rule plus one more sample at the weight the stream gives it
        ext = QuadratureRule(
            nodes=np.vstack([rule.nodes, pts[6]]),
            weights=np.append(rule.weights * 6.0 / 7.0, 1.0 / 7.0),
            spec=spec,
            K=6,
        )
        V = basis_matrix(spec, ext.nodes)
        out = _remove_one(ext, null_vector(V))
        assert out.n_nodes == ext.n_nodes - 1

    def test_symmetric_simultaneous_zeros(self):
        # mirror-symmetric configuration: both end nodes vanish together
        spec = spec_1d(2)
        rule = QuadratureRule(
            nodes=[[-1.0], [0.0], [1.0]],
            weights=[0.25, 0.5, 0.25],
            spec=spec,
            K=2,
        )
        V = basis_matrix(spec, rule.nodes)
        mu = V @ rule.weights
        c = np.array([0.5, -1.0, 0.5]) / np.sqrt(1.5)
        assert np.abs(V @ c).max() <= 1e-15
        out = _remove_one(rule, c)
        assert out.n_nodes == 1
        np.testing.assert_allclose(out.weights, [1.0])
        assert out.moment_residual(mu) <= 1e-14


class TestConstructFixedRule:
    def test_no_samples_beyond_basis_keeps_monte_carlo(self):
        rng = np.random.default_rng(7)
        pts = rng.random((6, 1))
        spec = legendre_spec(1, 6, domain_from_samples(pts))
        rule = construct_fixed_rule(SampleSet(pts), spec)
        np.testing.assert_array_equal(rule.nodes, pts)
        np.testing.assert_allclose(rule.weights, np.full(6, 1 / 6), atol=1e-15)

    def test_insufficient_samples(self):
        pts = np.random.default_rng(8).random((4, 1))
        spec = legendre_spec(1, 5, ((0.0, 1.0),))
        with pytest.raises(InsufficientSamples):
            construct_fixed_rule(SampleSet(pts), spec)

    def test_small_case_in_brute_force_feasible_set(self):
        pts = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        ss = SampleSet(pts)
        spec = spec_1d(3, 0.0, 1.0)
        mu = sample_moments(ss, spec)
        # on [-1, 1] the grid is -1, -0.5, 0, 0.5, 1: mean 0, second moment 0.5
        np.testing.assert_allclose(mu.values[:3], [1.0, 0.0, (3 * 0.5 - 1) / 2], atol=1e-15)
        rule = construct_fixed_rule(ss, spec)
        # the symmetric grid admits exact sub-rules below D+1 nodes, so the
        # oracle enumerates every subset size up to D+1
        feasible = set()
        for size in (2, 3):
            for combo in itertools.combinations(range(5), size):
                V = basis_matrix(spec, pts[list(combo)])
                w, *_ = np.linalg.lstsq(V, mu.values, rcond=None)
                if np.abs(V @ w - mu.values).max() > 1e-10:
                    continue
                if w.min() >= -1e-12:
                    feasible.add(combo)
        assert tuple(sorted(int(i) for i in rule.source_indices)) in feasible
        assert rule.moment_residual(mu) <= 1e-12

    def test_generic_small_cases_use_full_node_count(self):
        rng = np.random.default_rng(21)
        spec_dom = None
        for _ in range(10):
            pts = rng.random((5, 1))
            ss = SampleSet(pts)
            spec = spec_1d(3, 0.0, 1.0)
            mu = sample_moments(ss, spec)
            rule = construct_fixed_rule(ss, spec)
            assert rule.n_nodes == 3
            feasible = set()
            for combo in itertools.combinations(range(5), 3):
                V = basis_matrix(spec, pts[list(combo)])
                try:
                    w = np.linalg.solve(V, mu.values)
                except np.linalg.LinAlgError:
                    continue
                if w.min() >= -1e-12:
                    feasible.add(combo)
            assert tuple(sorted(int(i) for i in rule.source_indices)) in feasible

    def test_high_dimensional_property(self):
        rng = np.random.default_rng(9)
        pts = rng.random((10_000, 5))
        ss = SampleSet(pts)
        spec = legendre_spec(5, 126, domain_from_samples(pts))
        rule = construct_fixed_rule(ss, spec)
        assert rule.n_nodes <= 126
        assert rule.weights.min() >= -1e-12
        assert abs(rule.weights.sum() - 1.0) <= 1e-10
        assert rule.moment_residual(sample_moments(ss, spec)) <= 1e-8

    def test_exactness_on_random_polynomials(self):
        rng = np.random.default_rng(10)
        pts = rng.random((2000, 2))
        ss = SampleSet(pts)
        spec = legendre_spec(2, 21, domain_from_samples(pts))
        rule = construct_fixed_rule(ss, spec)
        V_samples = basis_matrix(spec, pts)
        V_rule = basis_matrix(spec, rule.nodes)
        for _ in range(100):
            coef = rng.standard_normal(21)
            q_samples = coef @ V_samples
            q_rule = coef @ V_rule
            lhs = rule.apply(q_rule)
            rhs = q_samples.mean()
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + np.abs(q_samples).max())

    def test_stability_identity(self):
        rng = np.random.default_rng(11)
        pts = rng.random((500, 2))
        ss = SampleSet(pts)
        rule = construct_fixed_rule(ss, legendre_spec(2, 10, domain_from_samples(pts)))
        # sum |w| = 1: a normalized rule with no negative weight
        assert abs(np.abs(rule.weights).sum() - 1.0) <= 1e-12

    def test_nodes_are_samples_bit_for_bit(self):
        rng = np.random.default_rng(12)
        pts = rng.random((300, 3))
        ss = SampleSet(pts)
        rule = construct_fixed_rule(ss, legendre_spec(3, 20, domain_from_samples(pts)))
        for node, idx in zip(rule.nodes, rule.source_indices):
            assert np.array_equal(node, pts[idx])

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        pts = rng.random((400, 2))
        spec = legendre_spec(2, 15, domain_from_samples(pts))
        r1 = construct_fixed_rule(SampleSet(pts), spec)
        r2 = construct_fixed_rule(SampleSet(pts.copy()), spec)
        np.testing.assert_array_equal(r1.nodes, r2.nodes)
        np.testing.assert_array_equal(r1.weights, r2.weights)


def _per_sample_rule(work, pts, stream_idx):
    """Reference: the engine's scalar step, one sample at a time."""
    engine = _StreamEngine(work, 10**6)
    cols = basis_matrix(work.spec, pts)
    for k in stream_idx:
        engine.feed(pts[k], cols[:, k], int(k))
    return engine.rule()


def _assert_same_rule(rule, ref):
    # base nodes of a resampled extension all have source index -1
    a = np.lexsort(np.vstack([ref.nodes.T, ref.source_indices]))
    b = np.lexsort(np.vstack([rule.nodes.T, rule.source_indices]))
    np.testing.assert_array_equal(rule.source_indices[b], ref.source_indices[a])
    np.testing.assert_array_equal(rule.nodes[b], ref.nodes[a])
    np.testing.assert_array_equal(rule.fixed_mask[b], ref.fixed_mask[a])
    np.testing.assert_array_equal(rule.weights[b] == 0.0, ref.weights[a] == 0.0)
    np.testing.assert_allclose(rule.weights[b], ref.weights[a], rtol=0.0, atol=1e-12)


def _stream_points(d, dist, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, d)) if dist == "uniform" else rng.standard_normal((n, d))


# (d, basis size, distribution, samples, duplicated start).
# The 4300-sample streams cross the 4096-column basis block; every stream
# makes more than 128 exchanges, a long chain of rank-one inverse updates.
# The last two are swap-heavy: about a quarter of their steps swap one old
# node out for the sample.
BLOCK_PASS_CORPUS = [
    (1, 8, "uniform", 4300, False),
    (2, 21, "uniform", 4300, False),
    (3, 20, "normal", 1500, False),
    (2, 10, "normal", 1500, False),
    (1, 6, "normal", 1500, False),
    (2, 21, "uniform", 1500, True),
    (3, 10, "uniform", 1500, True),
    (1, 12, "normal", 1500, False),
    (5, 56, "uniform", 4300, False),
    (3, 84, "normal", 4300, False),
]

# (mode, d, base size, target size, distribution, samples, their seed);
# the base is built on the first 1000 samples
EXTENSION_CORPUS = [
    ("increase_degree", 2, 6, 15, "uniform", 1500, 3),
    ("increase_degree", 1, 4, 9, "normal", 4300, 5),
    ("continue_samples", 1, 4, 9, "normal", 4300, 1),
    ("resampled", 2, 6, 10, "normal", 1500, 2),
]


def _corpus_stream(d, size, dist, n, dup):
    pts = _stream_points(d, dist, n)
    if dup:
        pts[size // 2] = pts[0]
    return pts, legendre_spec(d, size, domain_from_samples(pts))


def _corpus_request(mode, d, size, target, dist, n, seed):
    pts = _stream_points(d, dist, n, seed)
    first = SampleSet(pts[:1000])
    base = construct_fixed_rule(first, legendre_spec(d, size, domain_from_samples(first.points)))
    if mode == "continue_samples":
        # continue a nested rule, which carries fixed nodes
        base = extend_rule(ExtensionRequest(base, target, first, "increase_degree"))
    # a resampled extension streams fresh samples past the base nodes
    source = SampleSet(pts[1000:] if mode == "resampled" else pts)
    return ExtensionRequest(base=base, target_basis_size=target, sample_source=source, mode=mode)


class TestBlockPass:
    @pytest.mark.parametrize("d,size,dist,n,dup", BLOCK_PASS_CORPUS)
    def test_matches_per_sample_reference(self, d, size, dist, n, dup):
        pts, spec = _corpus_stream(d, size, dist, n, dup)
        start = QuadratureRule(
            nodes=pts[:size],
            weights=np.full(size, 1.0 / size),
            spec=spec,
            K=size - 1,
            source_indices=np.arange(size),
        )
        ref = _per_sample_rule(start, pts, np.arange(size, n))
        _assert_same_rule(construct_fixed_rule(SampleSet(pts), spec), ref)

    @pytest.mark.parametrize(
        "d,size,dist,n,dup", [case for case in BLOCK_PASS_CORPUS if not case[-1]]
    )
    def test_clean_swaps_stay_in_the_block(self, d, size, dist, n, dup, monkeypatch):
        # with a regular start no swap is a near tie here, so every step
        # that swaps one old node out for the sample runs in the block
        swaps = []
        apply = _StreamEngine._apply

        def counting_apply(self, u, zeroed, *args):
            if len(zeroed) == 1 and zeroed[0] != self.X.shape[0]:
                swaps.append(zeroed[0])
            return apply(self, u, zeroed, *args)

        monkeypatch.setattr(_StreamEngine, "_apply", counting_apply)
        pts, spec = _corpus_stream(d, size, dist, n, dup)
        construct_fixed_rule(SampleSet(pts), spec)
        assert swaps == []

    @pytest.mark.parametrize("mode,d,size,target,dist,n,seed", EXTENSION_CORPUS)
    def test_extension_matches_per_sample_reference(
        self, mode, d, size, target, dist, n, seed
    ):
        req = _corpus_request(mode, d, size, target, dist, n, seed)
        work, stream_idx = initialize_extension(req)
        ref = _per_sample_rule(work, req.sample_source.points, stream_idx)
        rule = extend_rule(req)
        assert rule.fixed_mask.any()
        _assert_same_rule(rule, ref)

    @pytest.mark.parametrize("case", list(SEED_CORPUS) + EXTENSION_CORPUS)
    def test_lean_step_matches_the_general_step(self, case, monkeypatch):
        # the lean step takes only what `_single_direction` takes with no
        # tie to break, fixed winners' other sides included, so turning
        # it off changes no bit of any rule
        def build():
            if case in SEED_CORPUS:
                return _increase_degree_chain(*case)
            return [extend_rule(_corpus_request(*case))]

        taken = []
        lean = _StreamEngine._lean_step

        def counted(self, *args):
            taken.append(lean(self, *args))
            return taken[-1]

        monkeypatch.setattr(_StreamEngine, "_lean_step", counted)
        rules = build()
        assert sum(taken) >= 10
        # the general step commits clean swaps and reweights (the sample's
        # deletion alone) too, so both of `_apply`'s paths are compared
        committed = {"swap": 0, "reweight": 0}
        apply = _StreamEngine._apply

        def counted_apply(self, u, zeroed, *args):
            deleted = self._deletable(zeroed)
            if deleted == [self.n]:
                committed["reweight"] += 1
            elif len(deleted) == len(zeroed) == 1:
                committed["swap"] += 1
            return apply(self, u, zeroed, *args)

        monkeypatch.setattr(_StreamEngine, "_apply", counted_apply)
        monkeypatch.setattr(_StreamEngine, "_lean_step", lambda self, *args: False)
        for rule, ref in zip(rules, build(), strict=True):
            for name in ("nodes", "weights", "source_indices", "fixed_mask"):
                np.testing.assert_array_equal(getattr(rule, name), getattr(ref, name))
        assert min(committed.values()) >= 1, committed

    @pytest.mark.parametrize("mode", ["fixed", "increase_degree", "continue_samples"])
    def test_engine_weights_are_sample_counts(self, mode, monkeypatch):
        # the engine holds counts that sum to the samples consumed; only
        # the rule it returns is normalized
        engines = []
        rule_ = _StreamEngine.rule
        monkeypatch.setattr(_StreamEngine, "rule", lambda self: engines.append(self) or rule_(self))
        if mode == "fixed":
            pts, spec = _corpus_stream(2, 21, "uniform", 1500, False)
            rule = construct_fixed_rule(SampleSet(pts), spec)
        else:
            case = next(c for c in EXTENSION_CORPUS if c[0] == mode)
            req = _corpus_request(*case)
            pts = req.sample_source.points
            engines.clear()
            rule = extend_rule(req)
        (engine,) = engines
        # every mode here streams the whole sample set
        assert engine.consumed == rule.K + 1 == pts.shape[0]
        assert engine.w.sum() == pytest.approx(engine.consumed, rel=1e-12)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_array_equal(rule.weights, engine.w / engine.w.sum())

    def test_duplicated_start_returns_to_fast_path(self, monkeypatch):
        # a duplicated sample among the first basis-size rows makes the
        # starting base singular; the first exchange must restore the
        # inverse instead of leaving every later step on the SVD
        import samplequad.linalg as linalg

        calls = []
        svd = linalg.null_vector
        monkeypatch.setattr(
            linalg, "null_vector", lambda *a, **k: calls.append(1) or svd(*a, **k)
        )
        rng = np.random.default_rng(17)
        pts = rng.random((2000, 2))
        pts[10] = pts[0]
        ss = SampleSet(pts)
        spec = legendre_spec(2, 21, domain_from_samples(pts))
        rule = construct_fixed_rule(ss, spec)
        assert len(calls) <= 5
        assert rule.moment_residual(sample_moments(ss, spec)) <= 1e-8

    def test_ill_conditioned_base_stays_on_fast_path(self, monkeypatch):
        # degree-10 Legendre on normal samples: solves through the updated
        # inverse miss the fast-path acceptance unless refined, and without
        # refinement most steps end in an SVD
        import samplequad.linalg as linalg

        calls = []
        svd = linalg.null_vector
        monkeypatch.setattr(
            linalg, "null_vector", lambda *a, **k: calls.append(1) or svd(*a, **k)
        )
        rng = np.random.default_rng(0)
        ss = SampleSet(rng.standard_normal((1000, 2)))
        spec = legendre_spec(2, 66, domain_from_samples(ss.points))
        rule = construct_fixed_rule(ss, spec)
        assert len(calls) <= 5
        assert rule.moment_residual(sample_moments(ss, spec)) <= 1e-8

    @pytest.mark.parametrize("size", [30, 40])
    def test_lu_serves_bases_beyond_refinement(self, size, monkeypatch):
        # degree 29 and 39 Legendre on normal samples: cond(V) is beyond
        # what refinement through the inverse recovers, and before the LU
        # step these builds took 267 and 545 SVDs
        import samplequad.linalg as linalg

        calls = []
        svd = linalg.null_vector
        monkeypatch.setattr(
            linalg, "null_vector", lambda *a, **k: calls.append(1) or svd(*a, **k)
        )
        ss = generate(DistributionSpec("normal", 1, seed=0), 3000)
        spec = legendre_spec(1, size, domain_from_samples(ss.points))
        rule = construct_fixed_rule(ss, spec)
        assert calls == []
        assert rule.moment_residual(sample_moments(ss, spec)) <= 1e-8


# increase_degree chains (kind, samples, basis sizes, seed): the first is
# from test_nested's SEED_CORPUS; in the second, one step moves four
# columns of the factorization, which is then rebuilt
BOOKKEEPING_CHAINS = [SEED_CORPUS[0], ("uniform", 512, (5, 9, 17, 33, 65), 3)]


class TestFactorizationBookkeeping:
    """After every step the base holds the support, and zero-weight fixed nodes.

    Between them the cases grow the rule, delete several nodes at once,
    zero fixed nodes, swap one node for the sample, and rebuild after a
    step that moves more than three columns.
    """

    @pytest.fixture
    def refused(self, monkeypatch):
        """Checks every `feed` and `drop_run`; counts refused exchanges."""
        refusals = []
        feed, drop_run, exchange = (
            _StreamEngine.feed, _StreamEngine.drop_run, _StreamEngine._exchange
        )

        def check(engine):
            b = engine.spec.size
            # a base exists exactly when there are at least b nodes
            assert (engine.fact is not None) == (engine.X.shape[0] >= b)
            if engine.fact is None:
                return
            np.testing.assert_array_equal(engine.fact.V, engine.Vall[:, engine.fact_cols])
            assert engine.fact_cols.shape[0] == b
            support = np.flatnonzero(engine.w > 0.0)
            assert np.isin(support, engine.fact_cols).all()
            # every base column outside the support is a weight-zero fixed node
            zero = np.setdiff1d(engine.fact_cols, support)
            assert (engine.w[zero] == 0.0).all() and engine.fixed[zero].all()

        def checked_feed(self, *args):
            feed(self, *args)
            check(self)

        def checked_drop_run(self, *args):
            out = drop_run(self, *args)
            check(self)
            return out

        def counted_exchange(self, *args):
            out = exchange(self, *args)
            if not out:
                refusals.append(self.consumed)
            return out

        monkeypatch.setattr(_StreamEngine, "feed", checked_feed)
        monkeypatch.setattr(_StreamEngine, "drop_run", checked_drop_run)
        monkeypatch.setattr(_StreamEngine, "_exchange", counted_exchange)
        return refusals

    @pytest.mark.parametrize("d,size,dist,n,dup", BLOCK_PASS_CORPUS)
    def test_fixed_rule_stream(self, d, size, dist, n, dup, refused):
        pts, spec = _corpus_stream(d, size, dist, n, dup)
        construct_fixed_rule(SampleSet(pts), spec)

    @pytest.mark.parametrize("mode,d,size,target,dist,n,seed", EXTENSION_CORPUS)
    def test_extension(self, mode, d, size, target, dist, n, seed, refused):
        extend_rule(_corpus_request(mode, d, size, target, dist, n, seed))

    def test_resampled_extension_takes_no_svd(self, monkeypatch):
        # fixed nodes at weight zero complete the base from the first sample
        req = _corpus_request("resampled", 2, 6, 10, "normal", 1500, 2)
        svd = svd_calls(monkeypatch)
        extend_rule(req)
        assert svd == []

    @pytest.mark.parametrize("case", BOOKKEEPING_CHAINS)
    def test_increase_degree_chain(self, case, refused):
        _increase_degree_chain(*case)
        assert len(refused) == (1 if case is BOOKKEEPING_CHAINS[1] else 0)


class TestRuleSerialization:
    def test_integrate_sums_weighted_values_at_the_nodes(self):
        rule = QuadratureRule(nodes=[[0.0], [1.0], [0.5]], weights=[0.25, 0.5, 0.25],
                              spec=spec_1d(3), K=2)
        # 0.25 * 1 + 0.5 * 4 + 0.25 * 2.25
        assert rule.integrate(lambda x: (1.0 + x[0]) ** 2) == 2.8125
        assert rule.integrate(lambda x: 1.0) == 1.0

    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(15)
        pts = rng.random((200, 2))
        ss = SampleSet(pts)
        rule = construct_fixed_rule(ss, legendre_spec(2, 12, domain_from_samples(pts)))
        blob = json.dumps(rule.to_json_dict())
        again = QuadratureRule.from_json_dict(json.loads(blob))
        np.testing.assert_array_equal(again.nodes, rule.nodes)
        np.testing.assert_array_equal(again.weights, rule.weights)
        np.testing.assert_array_equal(again.source_indices, rule.source_indices)
        np.testing.assert_array_equal(again.fixed_mask, rule.fixed_mask)
        assert again.spec == rule.spec
        assert again.K == rule.K

    def test_save_load_file(self, tmp_path):
        rng = np.random.default_rng(16)
        pts = rng.random((50, 1))
        ss = SampleSet(pts)
        rule = construct_fixed_rule(ss, legendre_spec(1, 4, domain_from_samples(pts)))
        path = tmp_path / "rule.json"
        rule.save(path)
        again = QuadratureRule.load(path)
        np.testing.assert_array_equal(again.nodes, rule.nodes)
        np.testing.assert_array_equal(again.weights, rule.weights)

    @pytest.mark.parametrize("name", ["source_indices", "fixed_mask"])
    def test_provenance_needs_one_entry_per_node(self, name):
        kwargs = {name: [0, 1]}
        with pytest.raises(DimensionMismatch, match=name):
            QuadratureRule(
                nodes=np.zeros((3, 1)), weights=np.full(3, 1 / 3),
                spec=spec_1d(3), K=2, **kwargs,
            )

    def test_nodes_of_another_dimension_are_a_mismatch(self):
        with pytest.raises(DimensionMismatch, match="2 columns, the basis has d = 1"):
            QuadratureRule(nodes=np.zeros((3, 2)), weights=np.full(3, 1 / 3),
                           spec=spec_1d(3), K=2)

    def test_only_the_no_source_index_may_repeat(self):
        data = construct_fixed_rule(
            SampleSet(np.linspace(0.0, 1.0, 20)), spec_1d(3, 0.0, 1.0)
        ).to_json_dict()
        # the base nodes of a resampled extension: -1, more than once
        data["source_indices"][:2] = [-1, -1]
        assert QuadratureRule.from_json_dict(data).source_indices[:2].tolist() == [-1, -1]
        data["source_indices"][:2] = [7, 7]
        with pytest.raises(InvalidSpec, match="'source_indices' repeats sample 7"):
            QuadratureRule.from_json_dict(data)

    @pytest.mark.parametrize("key", ["fixed_mask", "source_indices", "spec", "K"])
    def test_missing_json_key_is_named(self, key):
        data = construct_fixed_rule(
            SampleSet(np.linspace(0.0, 1.0, 20)), spec_1d(3, 0.0, 1.0)
        ).to_json_dict()
        del data[key]
        with pytest.raises(InvalidSpec, match=repr(key)):
            QuadratureRule.from_json_dict(data)

    @pytest.mark.parametrize("edit, named", [
        (lambda rule: rule.update(K=rule["K"] + 0.9), "'K' must be an integer"),
        (lambda rule: rule.update(K=True), "'K' must be an integer"),
        (lambda rule: rule["spec"].update(d=1.9), "'d' must be an integer"),
        (lambda rule: rule["source_indices"].__setitem__(0, 0.7), "'source_indices'"),
        (lambda rule: rule["source_indices"].__setitem__(0, True), "'source_indices'"),
        (lambda rule: rule["fixed_mask"].__setitem__(0, 0), "'fixed_mask'"),
        (lambda rule: rule["fixed_mask"].__setitem__(0, "x"), "'fixed_mask'"),
        (lambda rule: rule.update(K="25"), "'K' must be an integer"),
        (lambda rule: rule["spec"].update(size="3"), "'size' must be an integer"),
        (lambda rule: rule["spec"].update(d="1"), "'d' must be an integer"),
        (lambda rule: rule["weights"].__setitem__(0, True), "'weights'"),
        (lambda rule: rule["nodes"][0].__setitem__(0, True), "'nodes'"),
        (lambda rule: rule["spec"]["domain"].__setitem__(0, [False, True]), "'domain'"),
        (lambda rule: rule["spec"].update(domain=[0.5, [0.0, 1.0]]), "'domain'"),
        (lambda rule: rule["spec"]["domain"][0].append(2.0), "'domain'"),
        (lambda rule: rule["spec"].update(domain="ab"), "'domain'"),
        (lambda rule: rule["spec"].update(domain=[]), "'domain'"),
        (lambda rule: rule.update(spec=5), "spec JSON must be an object"),
        (lambda rule: rule["nodes"][0].append(0.5), "'nodes'"),
    ], ids=["float-K", "bool-K", "float-d", "float-index", "bool-index", "int-mask", "str-mask",
            "str-K", "str-size", "str-d", "bool-weight", "bool-node", "bool-domain",
            "number-box", "three-ends-box", "str-domain", "empty-domain", "number-spec",
            "ragged-nodes"])
    def test_no_value_is_truncated_or_cast(self, edit, named):
        data = construct_fixed_rule(
            SampleSet(np.linspace(0.0, 1.0, 20)), spec_1d(3, 0.0, 1.0)
        ).to_json_dict()
        edit(data)
        with pytest.raises(InvalidSpec, match=named):
            QuadratureRule.from_json_dict(data)

    def test_k_counts_only_the_nodes_drawn_from_the_stream(self):
        # the base nodes of a resampled extension carry no source index, so
        # one consumed sample (K = 0) is enough for the rule below
        rule = QuadratureRule(
            nodes=[[0.0], [0.5], [1.0]], weights=np.full(3, 1 / 3),
            spec=spec_1d(3), K=0, source_indices=[-1, -1, 0],
        )
        assert QuadratureRule.from_json_dict(rule.to_json_dict()).K == 0
        data = rule.to_json_dict()
        data["source_indices"] = [0, 1, 2]
        with pytest.raises(InvalidSpec, match="'K'"):
            QuadratureRule.from_json_dict(data)

    def test_moment_vector_wrapper(self):
        mv = MomentVector(values=[1.0, 0.5], K=9)
        assert isinstance(mv.values, np.ndarray)
