"""Tests for nested extension of existing rules."""

import numpy as np
import pytest

import samplequad.nested
from samplequad.basis import BasisSpec, domain_from_samples
from samplequad.errors import (
    InsufficientSamples,
    MissingEvaluation,
    ModeMismatch,
    NullSpaceFailure,
)
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


def node_keys(rule):
    return {row.tobytes() for row in rule.nodes}


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

    def test_off_sample_fixed_nodes(self):
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
        out = extend_rule(req, selection_seed=11)
        assert node_keys(base) <= node_keys(out)
        assert out.weights.min() >= -1e-12
        # bound: D <= N+M <= N+D+1 with N=2, D=4
        assert 4 <= out.n_nodes - 1 <= 7
        mu = sample_moments(samples, out.spec)
        assert out.moment_residual(mu) <= 1e-8

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
    """The M-removal walk starts at the fast-path vertex."""

    @pytest.mark.parametrize("case", SEED_CORPUS)
    def test_fast_path_steps_never_start_cold(self, case, monkeypatch):
        steps = []  # (M, seeded, null_space calls, initial() calls)
        calls = {"null_space": 0, "initial": 0}
        enumerate_, initial_, null_space_ = (
            RemovalProblem.enumerate, RemovalProblem.initial, samplequad.nested.null_space
        )

        def counting_null_space(*args):
            calls["null_space"] += 1
            return null_space_(*args)

        def counting_initial(self):
            calls["initial"] += 1
            return initial_(self)

        def recording_enumerate(self, cap=10**6, initial=None, stats=None):
            out = enumerate_(self, cap=cap, initial=initial, stats=stats)
            steps.append((self.m, initial is not None, calls["null_space"], calls["initial"]))
            calls.update(null_space=0, initial=0)
            return out

        monkeypatch.setattr(samplequad.nested, "null_space", counting_null_space)
        monkeypatch.setattr(RemovalProblem, "initial", counting_initial)
        monkeypatch.setattr(RemovalProblem, "enumerate", recording_enumerate)
        _increase_degree_chain(*case)
        fast = [s for s in steps if s[2] == 0]
        assert {2, 3} <= {m for m, *_ in fast}
        assert all(seeded and cold == 0 for _, seeded, _, cold in fast)

    @pytest.mark.parametrize("case", SEED_CORPUS)
    def test_seeded_walk_finds_what_a_cold_walk_finds(self, case, monkeypatch):
        enumerate_ = RemovalProblem.enumerate
        sizes = set()

        def compared_enumerate(self, cap=10**6, initial=None, stats=None):
            out = enumerate_(self, cap=cap, initial=initial, stats=stats)
            cold = enumerate_(self, cap=cap)
            # the same removals and zero sets, so the seeded draw picks the same
            assert [(r.indices, r.zero_indices) for r in out] == [
                (r.indices, r.zero_indices) for r in cold
            ]
            sizes.add(self.m)
            return out

        monkeypatch.setattr(RemovalProblem, "enumerate", compared_enumerate)
        _increase_degree_chain(*case)
        assert {2, 3} <= sizes

    def test_seed_that_is_no_vertex_falls_back(self, monkeypatch):
        case = SEED_CORPUS[1]
        expect = _increase_degree_chain(*case)
        null_basis = _StreamEngine._null_basis
        bad_seeds = []

        def bad_seed(self, v, col, excess):
            C, seed = null_basis(self, v, col, excess)
            if seed is not None:
                # a removal listing one node twice has a singular block
                seed = Removal(indices=(seed.indices[0],) * len(seed.indices))
                bad_seeds.append(seed)
            return C, seed

        monkeypatch.setattr(_StreamEngine, "_null_basis", bad_seed)
        got = _increase_degree_chain(*case)
        assert bad_seeds
        for want, rule in zip(expect, got):
            np.testing.assert_array_equal(rule.nodes, want.nodes)
            np.testing.assert_array_equal(rule.weights, want.weights)

    def test_empty_walk_raises_a_typed_failure(self, monkeypatch, uniform_samples, base_rule):
        monkeypatch.setattr(RemovalProblem, "enumerate", lambda self, **kwargs: [])
        req = ExtensionRequest(base_rule, 11, uniform_samples, "increase_degree")
        with pytest.raises(NullSpaceFailure) as info:
            extend_rule(req, selection_seed=7)
        assert info.value.sample_index is not None
