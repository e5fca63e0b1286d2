"""Tests for the Genz integrands and the convergence harness."""

import numpy as np
import pytest

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

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(schedule=(8, 4))
        with pytest.raises(ValueError):
            small_config(k_max=5)
        with pytest.raises(ValueError):
            small_config(families=("nope",))


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
