"""Tests for sample generation and file I/O."""

import cProfile
import hashlib
import math
import pickle
import pstats
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import samplequad.sampling
from samplequad.errors import (
    AcceptanceTooLow,
    DimensionInconsistent,
    DimensionMismatch,
    InsufficientSamples,
    InvalidSpec,
    ParseError,
)
from samplequad.rule import SampleSet
from samplequad.sampling import (
    MAGIC,
    DistributionSpec,
    generate,
    read_samples,
    write_samples,
)


# (kind, d, seed, params, what the message names): each is rejected when
# the spec is built, from Python and from JSON
BAD_SPECS = [
    pytest.param("normal", 2, 0, {"sd": [1, 2, 3]}, "normal sd must be", id="sd-length"),
    pytest.param("beta", 2, 0, {"a": [1, 2, 3]}, "beta a must be", id="beta-a-length"),
    pytest.param("uniform", 2, 0, {"hi": "x"}, "uniform hi must be", id="string-hi"),
    pytest.param("uniform", 2, 0, {"lo": 1, "hi": 0}, "uniform needs lo < hi", id="lo-above-hi"),
    pytest.param("normal", 2, 0, {"mean": math.nan}, "normal mean must be", id="nan-mean"),
    pytest.param("uniform", 2, 0, {"hi": math.inf}, "uniform hi must be", id="inf-hi"),
    pytest.param("beta", 2, 0, {"a": math.nan}, "beta a must be", id="nan-beta-a"),
    pytest.param("uniform", 2, 0, {"lo": True}, "uniform lo must be", id="bool-lo"),
    # the format is told by a file's bytes: `format` is a key like any unknown one
    pytest.param("file", 2, 0, {"path": "x.csv", "format": "csv"},
                 "file params take no 'format'", id="format-key"),
    # a file descriptor would read standard input
    pytest.param("file", 2, 0, {"path": 0}, "file path must be", id="int-path"),
    pytest.param("file", 2, 0, {"path": ["a"]}, "file path must be", id="list-path"),
    pytest.param("uniform", 2.5, 0, {}, "uniform d must be", id="fractional-d"),
    pytest.param("uniform", 2, -1, {}, "uniform seed must be", id="negative-seed"),
    pytest.param("uniform", 2, 0, 5, "uniform params must be", id="params-not-an-object"),
]


def banana_log_density_oracle(x):
    """Independent implementation of the correlated target density."""
    a, b = 1.0, 10.0
    f = sum(
        b * (x[i + 1] - x[i] ** 2) ** 2 + (a - x[i]) ** 2 for i in range(len(x) - 1)
    )
    return -f - 0.5 * float(np.dot(x, x))


def frozen_mh_rosenbrock(spec, count, trace=None):
    """The numpy chain the Python-float sampler replaced.

    Returns (points, acceptance rate).  Its log density takes the squared
    norm from `np.dot`; the accept decisions must agree anyway.  `trace`,
    if given, receives (x, proposal, log ratio, log u, accepted) per step.
    """

    def log_density(x, a, b):
        total = 0.0
        for i in range(x.shape[0] - 1):
            di = x[i + 1] - x[i] * x[i]
            total += b * di * di + (a - x[i]) * (a - x[i])
        return -total - 0.5 * float(np.dot(x, x))

    a = float(spec.params.get("a", 1.0))
    b = float(spec.params.get("b", 10.0))
    step = float(spec.params.get("step", 0.25))
    burn_in = int(spec.params.get("burn_in", 10_000))
    thin = int(spec.params.get("thinning", 10))
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    total = burn_in + count * thin
    steps = rng.normal(0.0, step, size=(total, spec.d))
    log_u = np.log(rng.random(total))
    x = np.zeros(spec.d)
    log_p = log_density(x, a, b)
    out = np.empty((count, spec.d))
    filled = 0
    accepted_window = 0
    accepted_total = 0
    for t in range(total):
        prop = x + steps[t]
        log_q = log_density(prop, a, b)
        if trace is not None:
            trace.append((x, prop, log_q - log_p, log_u[t], log_u[t] < log_q - log_p))
        if log_u[t] < log_q - log_p:
            x = prop
            log_p = log_q
            accepted_window += 1
            accepted_total += 1
        if (t + 1) % 1000 == 0:
            if accepted_window / 1000 < 1e-4:
                raise AcceptanceTooLow(f"MH acceptance below 0.0001 in a window at step {t}")
            accepted_window = 0
        if t >= burn_in and (t - burn_in) % thin == thin - 1:
            out[filled] = x
            filled += 1
            if filled == count:
                break
    return out[:filled], accepted_total / max(t + 1, 1)


@pytest.fixture()
def fifty_rows_d2(tmp_path):
    path = tmp_path / "fifty.csv"
    write_samples(generate(DistributionSpec(kind="uniform", d=2, seed=5), 50), path)
    return path


class TestGenerate:
    def test_uniform_mean(self):
        spec = DistributionSpec(kind="uniform", d=1, seed=1, params={"lo": 0.0, "hi": 1.0})
        pts = generate(spec, 100_000).points
        assert abs(pts.mean() - 0.5) <= 0.01

    def test_beta_on_box_mean(self):
        spec = DistributionSpec(
            kind="beta", d=1, seed=2, params={"a": 4.0, "b": 4.0, "lo": 0.4, "hi": 0.6}
        )
        pts = generate(spec, 100_000).points
        assert abs(pts.mean() - 0.5) <= 0.002

    def test_normal_moments(self):
        spec = DistributionSpec(kind="normal", d=2, seed=3, params={"mean": 1.0, "sd": 2.0})
        pts = generate(spec, 50_000).points
        assert np.abs(pts.mean(axis=0) - 1.0).max() <= 0.05
        assert np.abs(pts.std(axis=0) - 2.0).max() <= 0.05

    def test_reproducible_across_calls(self):
        spec = DistributionSpec(kind="uniform", d=3, seed=42)
        a = generate(spec, 1000).points
        b = generate(spec, 1000).points
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        s1 = DistributionSpec(kind="uniform", d=1, seed=1)
        s2 = DistributionSpec(kind="uniform", d=1, seed=2)
        assert not np.array_equal(generate(s1, 100).points, generate(s2, 100).points)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            DistributionSpec(kind="nope", d=1)
        with pytest.raises(InvalidSpec):
            DistributionSpec(kind="beta", d=1, params={"a": -1.0, "b": 1.0})
        with pytest.raises(InvalidSpec):
            DistributionSpec(kind="normal", d=1, params={"sd": 0.0})
        with pytest.raises(InvalidSpec):
            DistributionSpec(kind="rosenbrock", d=1)

    @pytest.mark.parametrize("kind, d, seed, params, named", BAD_SPECS)
    def test_bad_spec_is_named_when_built(self, kind, d, seed, params, named):
        with pytest.raises(InvalidSpec, match=named):
            DistributionSpec(kind, d, seed, params)
        data = {"kind": kind, "d": d, "seed": seed, "params": params}
        with pytest.raises(InvalidSpec, match=named):
            DistributionSpec.from_json_dict(data)

    def test_params_stay_as_given(self):
        # the spec resolves its parameters, but records them as given: a
        # scalar sd stays a scalar, an int stays an int
        params = {"mean": [0, 1], "sd": 2}
        spec = DistributionSpec("normal", 2, seed=4, params=params)
        data = spec.to_json_dict()
        assert data == {"kind": "normal", "d": 2, "seed": 4, "params": params}
        assert type(data["params"]["sd"]) is int
        assert generate(spec, 3).provenance["params"] == params
        again = DistributionSpec.from_json_dict(data)
        assert again == spec
        # the spec keeps a copy, checked once
        params["sd"] = -1.0
        assert spec.params["sd"] == 2
        assert generate(again, 5).points.tobytes() == generate(spec, 5).points.tobytes()

    @pytest.mark.parametrize(
        "name, value",
        [("step", 0), ("step", -0.5), ("step", math.inf), ("step", math.nan), ("step", "0.5"),
         ("burn_in", 2.5), ("burn_in", -5), ("burn_in", True),
         ("thinning", 0), ("thinning", 1.5), ("thinning", -1),
         ("a", math.inf), ("a", None), ("b", math.nan), ("b", -math.inf)],
    )
    def test_bad_rosenbrock_parameter_is_named(self, name, value):
        with pytest.raises(InvalidSpec, match=f"rosenbrock {name} must be"):
            DistributionSpec(kind="rosenbrock", d=2, params={name: value})

    def test_unknown_beta_parameter_is_named(self):
        # Beta(2, 5) meant, but "alpha" and "beta" are not the shape keys:
        # the spec used to sample Beta(2, 2) without a word
        with pytest.raises(InvalidSpec, match="beta params take no 'alpha', 'beta'"):
            DistributionSpec(kind="beta", d=1, params={"alpha": 2, "beta": 5})

    def test_misspelled_rosenbrock_parameter_is_named(self):
        with pytest.raises(InvalidSpec, match="rosenbrock params take no 'burnin'"):
            DistributionSpec(kind="rosenbrock", d=2, params={"step": 0.5, "burnin": 100})

    def test_unknown_key_of_a_dict_base_is_named(self):
        params = {"base": {"kind": "uniform", "d": 2, "params": {"low": 0.5}},
                  "region": "x[0] < 0.5"}
        with pytest.raises(InvalidSpec, match="uniform params take no 'low'"):
            DistributionSpec(kind="indicator", d=2, params=params)

    def test_rosenbrock_parameter_bounds_are_inclusive(self):
        params = {"step": 1e-3, "burn_in": np.int64(0), "thinning": 1, "a": -2, "b": 0.0}
        ss = generate(DistributionSpec(kind="rosenbrock", d=2, params=params), 3)
        assert ss.count == 3 and ss.provenance["burn_in"] == 0

    def test_file_spec_yields_the_first_count_rows(self, fifty_rows_d2):
        spec = DistributionSpec(kind="file", d=2, params={"path": str(fifty_rows_d2)})
        rows = read_samples(fifty_rows_d2).points
        np.testing.assert_array_equal(generate(spec, 5).points, rows[:5])
        np.testing.assert_array_equal(generate(spec, 50).points, rows)

    def test_file_spec_takes_a_path_object(self, fifty_rows_d2):
        spec = DistributionSpec(kind="file", d=2, params={"path": fifty_rows_d2})
        np.testing.assert_array_equal(generate(spec, 5).points,
                                      read_samples(fifty_rows_d2).points[:5])

    def test_file_of_another_dimension_is_a_mismatch(self, fifty_rows_d2):
        spec = DistributionSpec(kind="file", d=3, params={"path": str(fifty_rows_d2)})
        with pytest.raises(DimensionMismatch, match="dimension 2"):
            generate(spec, 5)

    def test_file_shorter_than_count_is_insufficient(self, fifty_rows_d2):
        spec = DistributionSpec(kind="file", d=2, params={"path": str(fifty_rows_d2)})
        with pytest.raises(InsufficientSamples, match="50 samples, 60 requested"):
            generate(spec, 60)


class TestRosenbrock:
    def test_marginal_concentrates_near_one(self):
        spec = DistributionSpec(kind="rosenbrock", d=2, seed=5)
        pts = generate(spec, 4000).points
        hist, edges = np.histogram(pts[:, 0], bins=40, range=(-3, 4))
        mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        assert 0.5 <= mode <= 1.5

    def test_against_rejection_sampling_oracle(self):
        # independent rejection sampler on a bounding box
        rng = np.random.default_rng(99)
        cap = math.exp(banana_log_density_oracle(np.array([1.0, 1.0]))) * 1.5
        accepted = []
        while len(accepted) < 4000:
            cand = rng.uniform([-2.5, -2.0], [3.5, 6.0], size=(20000, 2))
            dens = np.array([math.exp(banana_log_density_oracle(c)) for c in cand])
            keep = rng.random(20000) * cap < dens
            accepted.extend(cand[keep])
        oracle = np.asarray(accepted[:4000])

        spec = DistributionSpec(kind="rosenbrock", d=2, seed=7)
        chain = generate(spec, 4000).points
        assert abs(chain[:, 0].mean() - oracle[:, 0].mean()) <= 0.1
        assert abs(chain[:, 1].mean() - oracle[:, 1].mean()) <= 0.25
        assert abs(chain[:, 0].std() - oracle[:, 0].std()) <= 0.1

    def test_detailed_balance_on_logged_transitions(self):
        trace = []
        spec = DistributionSpec(
            kind="rosenbrock", d=2, seed=11,
            params={"burn_in": 200, "thinning": 2},
        )
        points, _ = frozen_mh_rosenbrock(spec, 200, trace=trace)
        assert points.tobytes() == generate(spec, 200).points.tobytes()
        assert len(trace) >= 400
        for x, prop, log_ratio, log_u, accepted in trace[:500]:
            want = banana_log_density_oracle(prop) - banana_log_density_oracle(x)
            assert log_ratio == pytest.approx(want, abs=1e-12)
            assert accepted == (log_u < log_ratio)

    def test_acceptance_rate_recorded(self):
        spec = DistributionSpec(kind="rosenbrock", d=2, seed=13)
        ss = generate(spec, 500)
        rate = ss.provenance["acceptance_rate"]
        assert 0.05 <= rate <= 0.95

    @settings(max_examples=60, deadline=None, derandomize=True)
    # the defaults, as `genz-banana` draws them: 12,560 steps
    @example(seed=1, d=2, step=0.25, burn_in=10_000, thinning=10, a=1.0, b=10.0, count=256)
    @example(seed=1, d=3, step=0.25, burn_in=10_000, thinning=10, a=1.0, b=10.0, count=256)
    @given(
        seed=st.integers(0, 2**63 - 1),
        d=st.integers(2, 4),
        step=st.floats(0.01, 2.0),
        burn_in=st.integers(0, 1500),
        thinning=st.integers(1, 5),
        a=st.floats(-2.0, 2.0),
        b=st.floats(0.0, 20.0),
        count=st.integers(1, 40),
    )
    def test_same_chain_as_the_frozen_numpy_loop(
        self, seed, d, step, burn_in, thinning, a, b, count
    ):
        params = {"step": step, "burn_in": burn_in, "thinning": thinning, "a": a, "b": b}
        spec = DistributionSpec(kind="rosenbrock", d=d, seed=seed, params=params)
        try:
            want, rate = frozen_mh_rosenbrock(spec, count)
        except AcceptanceTooLow as exc:
            with pytest.raises(AcceptanceTooLow, match=re.escape(str(exc))):
                generate(spec, count)
            return
        got = generate(spec, count)
        assert got.points.tobytes() == want.tobytes()
        assert got.provenance["acceptance_rate"] == rate

    @pytest.mark.parametrize("d", (2, 3))
    def test_a_step_makes_no_call(self, d):
        """Calls made from `_mh_rosenbrock` per step of a default chain, under cProfile.

        The loop that called `_log_density` for every proposal read 1.003
        at d = 2; with the density inlined, what is left are a few calls
        per window of 1,000 steps.
        """
        profile = cProfile.Profile()
        profile.enable()
        generate(DistributionSpec(kind="rosenbrock", d=d, seed=1), 256)
        profile.disable()
        calls = Counter()
        for (_, _, name), (*_, callers) in pstats.Stats(profile).stats.items():
            for (path, _, caller), counts in callers.items():
                if path == samplequad.sampling.__file__ and caller == "_mh_rosenbrock":
                    calls[name] += counts[0]
        steps = 10_000 + 256 * 10
        assert sum(calls.values()) <= 0.05 * steps, calls

    def test_huge_step_stalls_in_the_first_window(self):
        spec = DistributionSpec(kind="rosenbrock", d=2, params={"step": 1e3})
        with pytest.raises(AcceptanceTooLow, match="at step 999$"):
            generate(spec, 5)


class TestIndicatorRegion:
    def test_predicate_restricts_support(self):
        base = DistributionSpec(kind="uniform", d=2, params={"lo": -1.0, "hi": 1.0})
        spec = DistributionSpec(
            kind="indicator", d=2, seed=8,
            params={"base": base, "region": "x[0]**2 + x[1]**2 <= 0.25"},
        )
        ss = generate(spec, 2000)
        assert (ss.points[:, 0] ** 2 + ss.points[:, 1] ** 2 <= 0.25).all()
        # two runs that differ only in their region record different provenance
        assert ss.provenance["region"] == "x[0]**2 + x[1]**2 <= 0.25"

    def test_region_is_required(self):
        base = DistributionSpec(kind="uniform", d=1, params={"lo": 0.0, "hi": 1.0})
        with pytest.raises(InvalidSpec, match="region"):
            DistributionSpec(
                kind="indicator", d=1, seed=9,
                params={"base": base, "predicate": lambda x: x[0] > 0.75},
            )

    def test_acceptance_too_low(self):
        base = DistributionSpec(kind="uniform", d=1, params={"lo": 0.0, "hi": 1.0})
        spec = DistributionSpec(
            kind="indicator", d=1, seed=10,
            params={"base": base, "region": "x[0] > 2.0"},
        )
        with pytest.raises(AcceptanceTooLow):
            generate(spec, 10)

    @pytest.mark.parametrize(
        "region",
        ["np.save('f', 1)", "x.__class__", "__import__('os')", "x[0] >", "x[2] > 0", "x[0] & 1",
         "sqrt(x[0] - 2) > 0", "x[0] < 1e300 ** 2",
         # calls with the wrong number of arguments used to raise a bare TypeError
         "min() < 1", "abs(x[0], x[1]) < 1", "max(x[0]) < 1"],
    )
    def test_region_outside_the_grammar_is_rejected(self, region, tmp_path, monkeypatch):
        # a region string is data: it must neither reach numpy nor the
        # attributes of the sample row, nothing may be written, and a
        # region that fails to evaluate is a bad spec
        monkeypatch.chdir(tmp_path)
        base = DistributionSpec(kind="uniform", d=2)
        with pytest.raises(InvalidSpec):
            spec = DistributionSpec(
                kind="indicator", d=2, seed=8, params={"base": base, "region": region}
            )
            generate(spec, 10)
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture()
    def three_thousand_rows(self, tmp_path):
        rows = np.random.default_rng(0).random((3000, 2))
        path = tmp_path / "u.csv"
        write_samples(SampleSet(rows), path)
        return rows, {"kind": "indicator", "d": 2, "params": {
            "base": {"kind": "file", "d": 2, "params": {"path": str(path)}},
            "region": "x[0] < 0.01"}}

    def test_a_file_base_is_read_once_in_file_order(self, three_thousand_rows):
        # the base file used to be drawn again for every batch, its first
        # 1,024 rows each time: 20 rows of which 14 were distinct
        rows, data = three_thousand_rows
        inside = rows[rows[:, 0] < 0.01]
        assert len(inside) == 28
        got = generate(DistributionSpec.from_json_dict(data), 20).points
        assert got.tobytes() == inside[:20].tobytes()
        assert generate(DistributionSpec.from_json_dict(data), 28).points.tobytes() == (
            inside.tobytes())

    def test_a_file_base_with_too_few_rows_inside_is_insufficient(self, three_thousand_rows):
        _, data = three_thousand_rows
        with pytest.raises(InsufficientSamples, match="28 of 3000 rows in the region"):
            generate(DistributionSpec.from_json_dict(data), 31)

    @pytest.mark.parametrize("base, region, digest", [
        ({"kind": "uniform", "d": 2, "params": {"lo": -1.0, "hi": 1.0}}, "x[0] > 0.9",
         "efbe5dd512b629934efc500a765521605dd8eab497cd296f53f88da78733e1c2"),
        ({"kind": "normal", "d": 2, "params": {"mean": 0.5, "sd": 2.0}}, "x[0] > 4 * abs(x[1])",
         "3d87dff3ac1b84a386ff71d10f1ab482e2b2d7852a2b6a485939842497721444"),
        ({"kind": "beta", "d": 2, "params": {"a": 2.0, "b": 5.0}}, "x[0] > 0.6",
         "823db613c343e06f85973ae3b2ca5ca763ac03d22708f9216c62070e31140bec"),
        ({"kind": "rosenbrock", "d": 2, "params": {"burn_in": 200, "thinning": 1}}, "x[1] > 1.2",
         "be0526afba8ee09381e084ec99f23da5e4a6ee693ec03af242436a84750eeff7"),
    ], ids=["uniform", "normal", "beta", "rosenbrock"])
    def test_drawn_bases_give_the_frozen_samples(self, base, region, digest):
        # several batches each (acceptance 4% to 10%); the digests were
        # taken before a file base was read once, and must not move
        spec = DistributionSpec.from_json_dict(
            {"kind": "indicator", "d": 2, "seed": 3, "params": {"base": base, "region": region}})
        assert hashlib.sha256(generate(spec, 300).points.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("base_d", (1, 3))
    def test_base_of_another_dimension_is_rejected(self, base_d):
        # a d=1 base used to be broadcast into both columns (x0 == x1)
        params = {"base": {"kind": "uniform", "d": base_d}, "region": "x[0] < 0.5"}
        with pytest.raises(InvalidSpec, match="dimension 2"):
            DistributionSpec(kind="indicator", d=2, params=params)
        with pytest.raises(InvalidSpec, match="dimension 2"):
            DistributionSpec.from_json_dict({"kind": "indicator", "d": 2, "params": params})

    def test_dict_base_is_a_spec_base(self):
        base = {"kind": "uniform", "d": 2, "params": {"lo": -1.0, "hi": 1.0}}
        params = {"base": base, "region": "x[0] < x[1]"}
        spec = DistributionSpec(kind="indicator", d=2, seed=5, params=params)
        assert params["base"] is base
        assert spec.params["base"] == DistributionSpec.from_json_dict(base)
        twin = DistributionSpec(kind="indicator", d=2, seed=5,
                                params={**params, "base": DistributionSpec.from_json_dict(base)})
        again = DistributionSpec.from_json_dict(spec.to_json_dict())
        pickled = pickle.loads(pickle.dumps(spec))
        pts = generate(spec, 200).points
        for other in (twin, again, pickled):
            assert pts.tobytes() == generate(other, 200).points.tobytes()

    def test_region_grammar_evaluates_like_python(self):
        region = "not (x[0] > 0.5 and x[1] < 0.25) or sqrt(abs(x[0] - x[1])) < pi / 8"
        base = DistributionSpec(kind="uniform", d=2)
        spec = DistributionSpec(
            kind="indicator", d=2, seed=3, params={"base": base, "region": region}
        )
        pts = generate(spec, 300).points
        expect = ~((pts[:, 0] > 0.5) & (pts[:, 1] < 0.25))
        expect |= np.sqrt(np.abs(pts[:, 0] - pts[:, 1])) < math.pi / 8
        assert expect.all()


class TestSampleFiles:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        from samplequad.rule import SampleSet

        ss = SampleSet(rng.standard_normal((1000, 3)))
        path = tmp_path / "samples.bin"
        write_samples(ss, path)
        again = read_samples(path)
        assert again.points.tobytes() == ss.points.tobytes()

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        from samplequad.rule import SampleSet

        ss = SampleSet(rng.random((200, 2)))
        path = tmp_path / "samples.csv"
        write_samples(ss, path)
        again = read_samples(path)
        np.testing.assert_array_equal(again.points, ss.points)

    def test_csv_parse(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0.5,0.25\n1,0\n", encoding="utf-8")
        ss = read_samples(path)
        assert ss.d == 2 and ss.count == 2
        np.testing.assert_array_equal(ss.points, [[0.5, 0.25], [1.0, 0.0]])

    def test_csv_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,abc\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_samples(path)
        assert err.value.line == 1

    def test_csv_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("0.5,0.25\n1.0\n", encoding="utf-8")
        with pytest.raises(DimensionInconsistent) as err:
            read_samples(path)
        assert err.value.line == 2

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n0.5,0.25\n\n  \n1,0\n\n", encoding="utf-8")
        np.testing.assert_array_equal(read_samples(path).points, [[0.5, 0.25], [1.0, 0.0]])
        # a row after blank lines is reported by its line in the file
        path.write_text("0.5,0.25\n\n\n1,abc\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_samples(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_csv_without_rows_is_empty(self, text, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="empty sample file"):
            read_samples(path)

    def test_binary_of_the_wrong_length(self, tmp_path):
        path = tmp_path / "short.bin"
        write_samples(SampleSet(np.ones((4, 2))), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="file length 72 != expected 80"):
            read_samples(path)

    def test_binary_without_columns_is_a_mismatch(self, tmp_path):
        # a header of d = 0 and five rows has the length it declares
        path = tmp_path / "flat.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 0, 5))
        with pytest.raises(DimensionMismatch, match="d >= 1"):
            read_samples(path)

    def test_file_spec_takes_no_format(self):
        message = "file params take no 'format' (known: path)"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            DistributionSpec(kind="file", d=2, params={"path": "x.bin", "format": "binary_f64"})

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(ParseError):
            read_samples(path)

    def test_the_writer_picks_binary_for_bin_only(self, tmp_path):
        ss = SampleSet(np.random.default_rng(3).random((5, 2)))
        for name in ("s.bin", "s.csv", "s.dat", "s"):
            write_samples(ss, tmp_path / name)
            assert (tmp_path / name).read_bytes().startswith(MAGIC) == (name == "s.bin")
            assert read_samples(tmp_path / name).points.tobytes() == ss.points.tobytes()

    def test_the_reader_tells_the_format_by_content(self, tmp_path):
        # binary under another name, as `write_samples` wrote every name but
        # `.csv` before the writer chose by `.bin`; CSV under any name
        ss = SampleSet(np.random.default_rng(4).standard_normal((7, 3)))
        write_samples(ss, tmp_path / "x.bin")
        write_samples(ss, tmp_path / "y.csv")
        for src, name in (("x.bin", "x.dat"), ("x.bin", "x.csv"), ("y.csv", "y.txt"),
                          ("y.csv", "y.bin")):
            (tmp_path / name).write_bytes((tmp_path / src).read_bytes())
            assert read_samples(tmp_path / name).points.tobytes() == ss.points.tobytes()

    @pytest.mark.parametrize("blob, named", [
        (MAGIC + struct.pack("<I", 2), "header of 12 bytes, 16 expected"),
        (MAGIC, "header of 8 bytes, 16 expected"),
        (b"\xff\xfe0.5,0.25\n", "neither a binary sample file nor UTF-8 text"),
        (b"0.5,0.25\n\x80\n", "neither a binary sample file nor UTF-8 text"),
    ], ids=["short-header", "magic-only", "utf-16-bom", "stray-byte"])
    def test_a_file_neither_binary_nor_text_is_a_parse_error(self, blob, named, tmp_path):
        path = tmp_path / "odd.bin"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=named):
            read_samples(path)

    def test_csv_lines_end_as_in_a_text_file(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"0.5,0.25\r1,0\r\n2,3\n")
        np.testing.assert_array_equal(read_samples(path).points, [[0.5, 0.25], [1, 0], [2, 3]])
