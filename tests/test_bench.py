"""Tests for the Genz integrands and the convergence harness."""

import numpy as np
import pytest

import samplequad.bench
from samplequad.bench import (
    ExperimentConfig,
    FAMILIES,
    GenzFunction,
    MONTE_CARLO,
    NESTED_RULE,
    REGENERATED_RULE,
    draw_genz_params,
    fit_slope,
    genz_eval_many,
    run_convergence,
)
from samplequad.errors import InvalidSpec, NullSpaceFailure
from samplequad.rule import sample_moments
from samplequad.sampling import DistributionSpec


def genz_at(f, x):
    """The integrand's value at the single point `x`."""
    (value,) = genz_eval_many(f, x)
    return float(value)


class TestGenzEval:
    def test_oscillatory_collapse(self):
        f = GenzFunction("oscillatory", a=np.zeros(3), b=np.zeros(3))
        for x in (np.zeros(3), np.ones(3), np.array([0.3, 0.6, 0.9])):
            assert genz_at(f, x) == 1.0

    def test_discontinuous_cutoff(self):
        f = GenzFunction("discontinuous", a=np.ones(2), b=np.array([0.5, 0.5]))
        assert genz_at(f, [0.6, 0.1]) == 0.0
        assert genz_at(f, [0.1, 0.6]) == 0.0
        assert genz_at(f, [0.1, 0.1]) == pytest.approx(np.exp(0.2))

    def test_corner_peak_hand_value(self):
        f = GenzFunction("corner_peak", a=np.ones(2), b=np.zeros(2))
        assert genz_at(f, [1.0, 1.0]) == pytest.approx(1.0 / 27.0, abs=1e-15)

    def test_product_peak(self):
        f = GenzFunction("product_peak", a=np.array([2.0]), b=np.array([0.5]))
        assert genz_at(f, [0.5]) == pytest.approx(4.0)

    def test_c0_kink(self):
        f = GenzFunction("c0", a=np.array([3.0]), b=np.array([0.5]))
        assert genz_at(f, [0.5]) == 1.0
        assert genz_at(f, [0.0]) == pytest.approx(np.exp(-1.5))

    def test_gaussian(self):
        f = GenzFunction("gaussian", a=np.array([2.0, 1.0]), b=np.array([0.0, 0.0]))
        assert genz_at(f, [0.5, 0.5]) == pytest.approx(np.exp(-(4 * 0.25 + 0.25)))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, b = draw_genz_params(3, 1)
        pts = rng.random((50, 3))
        for family in FAMILIES:
            f = GenzFunction(family, a, b)
            many = genz_eval_many(f, pts)
            single = np.array([genz_at(f, x) for x in pts])
            np.testing.assert_allclose(many, single, rtol=1e-14)


@pytest.mark.parametrize("family, a, b, named", [
    ("nope", [1.0], [0.5], "unknown Genz family"),
    ("oscillatory", [1.0, 2.0], [0.5], "equal length"),
])
def test_invalid_genz_function_is_a_typed_error(family, a, b, named):
    with pytest.raises(InvalidSpec, match=named):
        GenzFunction(family, a=np.array(a), b=np.array(b))


class TestDrawGenzParams:
    def test_a_norm_is_five_halves(self):
        for seed in range(10):
            a, _ = draw_genz_params(5, seed)
            assert abs(np.linalg.norm(a) - 2.5) <= 1e-12

    def test_b_in_unit_cube(self):
        for seed in range(10):
            _, b = draw_genz_params(4, seed)
            assert (b >= 0).all() and (b <= 1).all()

    def test_deterministic(self):
        a1, b1 = draw_genz_params(3, 7)
        a2, b2 = draw_genz_params(3, 7)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


def small_config(**kw):
    defaults = dict(
        d=2,
        k_max=400,
        schedule=(2, 4, 8),
        distribution=DistributionSpec(kind="uniform", d=2),
        repetitions=2,
        seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


CONFIG_JSON = {
    "d": 2, "k_max": 400, "schedule": [2, 4, 8],
    "distribution": {"kind": "uniform", "d": 2},
}


class TestExperimentConfigJson:
    def test_round_trip_keeps_the_int_coercions(self):
        config = ExperimentConfig.from_json_dict({**CONFIG_JSON, "k_max": 400.0})
        assert config.k_max == 400 and type(config.k_max) is int
        assert ExperimentConfig.from_json_dict(config.to_json_dict()) == config
        # a numeric string is no integer
        with pytest.raises(InvalidSpec, match="d must be an integer, got '2'"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, "d": "2"})

    def test_unknown_key_is_named(self):
        with pytest.raises(InvalidSpec, match="'repetiton'"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, "repetiton": 1})

    @pytest.mark.parametrize("value", ("false", 0, 1, None))
    def test_include_nonnested_must_be_a_bool(self, value):
        with pytest.raises(InvalidSpec, match="include_nonnested must be a bool"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, "include_nonnested": value})
        with pytest.raises(InvalidSpec, match="include_nonnested must be a bool"):
            small_config(include_nonnested=value)
        for flag in (False, True):
            config = ExperimentConfig.from_json_dict({**CONFIG_JSON, "include_nonnested": flag})
            assert config.include_nonnested is flag

    @pytest.mark.parametrize("cap", (0, -3))
    def test_removal_cap_below_one_rejected(self, cap):
        with pytest.raises(InvalidSpec, match="removal_cap must be at least 1"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, "removal_cap": cap})
        with pytest.raises(InvalidSpec, match="removal_cap must be at least 1"):
            small_config(removal_cap=cap)
        assert small_config(removal_cap=1).removal_cap == 1

    @pytest.mark.parametrize("key, value, named", [
        ("k_max", "400.5", "k_max must be an integer"),
        ("k_max", 400.5, "k_max must be an integer"),
        ("schedule", [2, 4.9, 8], "schedule must be an integer"),
        ("repetitions", 1.7, "repetitions must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("seed", -1, "seed must be at least 0"),
        ("removal_cap", 2.5, "removal_cap must be an integer"),
        ("d", True, "d must be an integer"),
    ])
    def test_values_int_would_truncate_are_rejected(self, key, value, named):
        with pytest.raises(InvalidSpec, match=named):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, key: value})
        with pytest.raises(InvalidSpec, match=named):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("schedule", 5), ("families", 5), ("families", "oscillatory"),
    ])
    def test_schedule_and_families_must_be_lists(self, key, value):
        # a string would be split into letters, a number not iterated at all
        with pytest.raises(InvalidSpec, match=f"{key} must be a list"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, key: value})
        with pytest.raises(InvalidSpec, match=f"{key} must be a list"):
            small_config(**{key: value})

    def test_dimension_must_match_the_distribution(self):
        with pytest.raises(InvalidSpec, match="d=3 but the distribution has d=2"):
            ExperimentConfig.from_json_dict({**CONFIG_JSON, "d": 3})
        with pytest.raises(InvalidSpec, match="d=3"):
            small_config(d=3)


class TestRunConvergence:
    def test_report_structure(self):
        report = run_convergence(small_config())
        methods = {m for (_, _, m) in report.errors}
        assert methods == {NESTED_RULE, MONTE_CARLO}
        for family in FAMILIES:
            for n in (2, 4, 8):
                assert (family, n, NESTED_RULE) in report.errors
                assert (family, n, MONTE_CARLO) in report.errors
        assert all(err >= 0 for err in report.errors.values())

    def test_rule_exact_for_polynomial_integrand(self):
        # a degree-1 polynomial is inside every rule's space, so the rule
        # error must be at exactness level while MC error is not
        report = run_convergence(small_config())
        for n in (2, 4, 8):
            err = report.errors[("oscillatory", n, NESTED_RULE)]
            assert err < 1.0  # sanity: finite

    def test_monte_carlo_at_full_sample_count_is_exact(self):
        config = small_config(schedule=(2, 4, 399))
        report = run_convergence(config)
        for family in FAMILIES:
            assert report.errors[(family, 399, MONTE_CARLO)] == 0.0

    def test_nested_chain_reuses_evaluations(self):
        config = small_config(repetitions=1)
        report = run_convergence(config)
        # unique nodes evaluated must be below the sum of all rule sizes
        assert report.evaluations[NESTED_RULE] < sum(n + 1 for n in (2, 4, 8)) + 3

    def test_include_nonnested(self):
        report = run_convergence(small_config(include_nonnested=True))
        assert any(m == REGENERATED_RULE for (_, _, m) in report.errors)

    def test_failures_abort_only_their_repetition(self, monkeypatch):
        extend, construct = samplequad.bench.extend_rule, samplequad.bench.construct_fixed_rule
        calls = {"extend": 0, "size 9": 0}

        def failing_extend(req, **kwargs):
            # the chain's third extension is the first of repetition 1
            calls["extend"] += 1
            if calls["extend"] == 3:
                raise NullSpaceFailure("injected extension failure")
            return extend(req, **kwargs)

        def failing_construct(samples, spec):
            # only the regenerated N = 8 rules have size 9; fail the first
            if spec.size == 9:
                calls["size 9"] += 1
                if calls["size 9"] == 1:
                    raise NullSpaceFailure("injected construction failure")
            return construct(samples, spec)

        monkeypatch.setattr(samplequad.bench, "extend_rule", failing_extend)
        monkeypatch.setattr(samplequad.bench, "construct_fixed_rule", failing_construct)
        config = small_config(include_nonnested=True)
        report = run_convergence(config)
        assert report.failures == [
            "repetition 0: regenerated rule N=8 failed: injected construction failure",
            "repetition 1: nested chain failed: injected extension failure",
        ]
        assert report.completed_repetitions == dict.fromkeys(config.active_families(), 1)
        monkeypatch.undo()
        # one repetition draws the seeds of repetition 0
        alone = run_convergence(small_config(include_nonnested=True, repetitions=1))
        nested = {k: e for k, e in report.errors.items() if k[2] == NESTED_RULE}
        assert nested == {k: e for k, e in alone.errors.items() if k[2] == NESTED_RULE}
        assert len(nested) == 3 * len(FAMILIES)

    def test_rosenbrock_excludes_corner_peak(self):
        config = small_config(
            distribution=DistributionSpec(kind="rosenbrock", d=2),
            k_max=300,
            repetitions=1,
        )
        assert "corner_peak" not in config.active_families()
        report = run_convergence(config)
        assert not any(f == "corner_peak" for (f, _, _) in report.errors)

    def test_deterministic(self):
        r1 = run_convergence(small_config())
        r2 = run_convergence(small_config())
        assert r1.errors == r2.errors

    def test_csv_and_json_outputs(self, tmp_path):
        report = run_convergence(small_config(repetitions=1))
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "family,N,method,mean_abs_error"
        assert len(lines) == 1 + len(report.errors)
        import json

        payload = json.loads(json_path.read_text())
        assert payload["config"]["d"] == 2
        assert len(payload["errors"]) == len(report.errors)

    @pytest.mark.parametrize("schedule", [(), (-3, 4), (4, 4)],
                             ids=["empty", "negative-size", "repeated-size"])
    def test_schedule_that_cannot_run_is_rejected(self, schedule):
        with pytest.raises(InvalidSpec, match="schedule"):
            small_config(schedule=schedule)

    @pytest.mark.parametrize("kind, families", [
        ("uniform", ()), ("rosenbrock", ()), ("rosenbrock", ("corner_peak",)),
    ])
    def test_a_config_that_measures_no_family_is_rejected(self, kind, families):
        with pytest.raises(InvalidSpec, match="leave none to measure"):
            small_config(distribution=DistributionSpec(kind, 2), families=families)
        # the corner peak alone is measured under the uniform distribution
        assert small_config(families=("corner_peak",)).active_families() == ("corner_peak",)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            small_config(schedule=(8, 4))
        with pytest.raises(InvalidSpec):
            small_config(k_max=5)
        with pytest.raises(InvalidSpec):
            small_config(families=("nope",))


# The paper's claim: on smooth Genz integrands the nested rules beat Monte
# Carlo by orders of magnitude.  Monte Carlo error over nested-rule error at
# N = 64, d = 2, k_max 2000, schedule 4-64, one repetition, smallest over
# seeds 1-3 (seed 1, the gated one, in brackets):
#   uniform: oscillatory 1.6e8 (1.6e8), product peak 366 (366),
#            corner peak 1,730 (2,270), Gaussian 7,120 (7,120);
#   rosenbrock: oscillatory 4,350 (112,000).
# The gate asks for 10x on exactly these, the families at >= 100x on every
# seed.  Not gated: c0 (uniform 4.7-42x, rosenbrock 7-509x), discontinuous
# (0.3-8x), and rosenbrock's product peak (38-58x) and Gaussian (38-206x).
CLAIM_MARGIN = 10.0
MEASURED_MARGINS = {
    "uniform": {"oscillatory": 1.6e8, "product_peak": 366.0, "corner_peak": 1730.0,
                "gaussian": 7120.0},
    "rosenbrock": {"oscillatory": 4350.0},
}
# Convergence on the same families: nested-rule error at N = 16 over that
# at N = 64, same config, smallest over seeds 1-3 (seed 1 in brackets;
# smallest over seeds 1-12 after the semicolon):
#   uniform: oscillatory 2.45e5 (5.11e5; 2.45e5), product peak 16.9 (16.9;
#            8.0), corner peak 119 (119; 3.1), Gaussian 475 (475; 112);
#   rosenbrock: oscillatory 1,530 (3,200; 1,530).
# The gate asks for at most half the smallest over seeds 1-12.
# At seed 1 it fails an N = 64 error taken from the N = 16 rule (ratio 1 on
# every family) and an N = 64 rule one degree lower, size 55 (uniform
# oscillatory 3.2e4, rosenbrock oscillatory 185), both of which still clear
# the 10x margin over Monte Carlo.
MIN_CONVERGENCE = {
    "uniform": {"oscillatory": 1e5, "product_peak": 3.0, "corner_peak": 1.5, "gaussian": 30.0},
    "rosenbrock": {"oscillatory": 500.0},
}


class TestPaperClaims:
    @pytest.mark.parametrize("kind", sorted(MEASURED_MARGINS))
    def test_nested_rules_beat_monte_carlo(self, kind, monkeypatch):
        config = ExperimentConfig(
            d=2, k_max=2000, schedule=(4, 8, 16, 32, 64),
            distribution=DistributionSpec(kind=kind, d=2), repetitions=1, seed=1,
        )
        chains = []  # (samples, chain) of every chain built
        build = samplequad.bench._build_chain

        def recording_build(config, samples, *args):
            chain = build(config, samples, *args)
            chains.append((samples, chain))
            return chain

        monkeypatch.setattr(samplequad.bench, "_build_chain", recording_build)
        report = run_convergence(config)
        again = run_convergence(config)
        assert report.failures == []
        assert report.errors == again.errors

        (samples, chain), (_, chain_again) = chains
        sample_keys = {row.tobytes() for row in samples.points}
        assert [rule.spec.size for rule in chain] == [n + 1 for n in config.schedule]
        assert chain[0].n_nodes <= chain[0].spec.size
        for base, rule in zip([None] + chain[:-1], chain):
            assert rule.weights.min() >= 0.0
            assert rule.moment_residual(sample_moments(samples, rule.spec)) <= 1e-8
            node_keys = {row.tobytes() for row in rule.nodes}
            assert node_keys <= sample_keys
            if base is not None:
                assert {row.tobytes() for row in base.nodes} <= node_keys
                n, d_plus = base.n_nodes - 1, rule.spec.size - 1
                assert d_plus <= rule.n_nodes - 1 <= n + d_plus + 1
        for rule, rule_again in zip(chain, chain_again):
            np.testing.assert_array_equal(rule.nodes, rule_again.nodes)
            np.testing.assert_array_equal(rule.weights, rule_again.weights)

        for family in MEASURED_MARGINS[kind]:
            mc = report.errors[(family, 64, MONTE_CARLO)]
            nested = report.errors[(family, 64, NESTED_RULE)]
            measured = MEASURED_MARGINS[kind][family]
            assert nested * CLAIM_MARGIN <= mc, (family, mc / nested, measured)
            gain = report.errors[(family, 16, NESTED_RULE)] / nested
            assert gain >= MIN_CONVERGENCE[kind][family], (family, gain)


class TestFitSlope:
    def test_recovers_known_slope(self):
        ns = np.array([4, 8, 16, 32, 64])
        errors = 3.0 * np.asarray(ns, dtype=float) ** -1.5
        assert fit_slope(ns, errors) == pytest.approx(-1.5, abs=1e-12)

    def test_uses_upper_half(self):
        ns = np.array([4, 8, 16, 32])
        # pre-asymptotic plateau on the lower half should be ignored
        errors = np.array([1.0, 1.0, 0.25, 0.0625])
        assert fit_slope(ns, errors) == pytest.approx(-2.0, abs=1e-12)

    def test_zero_error_is_clamped(self):
        ns = np.array([4, 8, 16, 32])
        errors = np.array([1e-3, 1e-5, 0.0, 0.0])
        assert np.isfinite(fit_slope(ns, errors))
