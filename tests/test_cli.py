"""Tests for the command-line interface."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import samplequad.basis
import samplequad.bench
import samplequad.cli
import samplequad.nested
from samplequad.cli import main
from samplequad.errors import NullSpaceFailure
from samplequad.rule import QuadratureRule, SampleSet
from samplequad.sampling import MAGIC, DistributionSpec, generate, read_samples, write_samples
from test_nested import svd_calls
from test_sampling import BAD_SPECS

UNIFORM_2D = '{"kind":"uniform","d":2,"params":{"lo":0.0,"hi":1.0}}'


def run(*argv):
    return main([str(a) for a in argv])


class TestGenSamples:
    def test_writes_requested_count(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run("--seed", 4, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 1000, "--out", out)
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert read_samples(out).count == 1000
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["provenance"]["seed"] == 4

    def test_bad_spec_exits_2(self, tmp_path):
        code = run("gen-samples", "--dist", '{"kind":"nope","d":1}',
                   "--count", 10, "--out", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize(
        "params", ['{"step": 0}', '{"burn_in": 2.5}', '{"burn_in": -5}', '{"thinning": 0}']
    )
    def test_bad_rosenbrock_parameter_exits_2(self, params, tmp_path, caplog):
        name = params.split('"')[1]
        dist = '{"kind":"rosenbrock","d":2,"params":%s}' % params
        code = run("gen-samples", "--dist", dist, "--count", 5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert f"rosenbrock {name} must be" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    # each fails before anything is drawn; the first used to exit 1 with a
    # MemoryError, the second with numpy's "array is too big"
    @pytest.mark.parametrize("params", ({"thinning": 10**12}, {"burn_in": 2**62}))
    def test_rosenbrock_chain_too_long_to_draw_exits_2(self, params, tmp_path, caplog):
        dist = json.dumps({"kind": "rosenbrock", "d": 2, "params": params})
        code = run("gen-samples", "--dist", dist, "--count", 10, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "rosenbrock burn_in + count * thinning" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    # each has more than a 47-bit address space maps, so nothing is allocated;
    # the last four are beyond numpy's size limit ("array is too big",
    # "maximum allowed dimension exceeded")
    @pytest.mark.parametrize("kind, d, count", [
        ("uniform", 2**48, 1), ("beta", 2**48, 1), ("normal", 2**48, 1),
        ("indicator", 2**48, 1), ("uniform", 2, 2**46), ("normal", 2, 2**46),
        ("beta", 2, 2**46), ("indicator", 2, 2**46), ("normal", 2**48, 2**20),
        ("uniform", 10**30, 1), ("normal", 2**70, 1), ("beta", 10**30, 1),
    ])
    def test_samples_too_many_to_allocate_exit_2(self, kind, d, count, tmp_path, caplog):
        params = {"base": {"kind": "uniform", "d": d}, "region": "x[0] < 0.5"} if (
            kind == "indicator") else {}
        dist = json.dumps({"kind": kind, "d": d, "params": params})
        code = run("gen-samples", "--dist", dist, "--count", count, "--out", tmp_path / "x.csv")
        assert code == 2
        assert f"{kind} samples at d = {d} and count = {count} is more than numpy" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    def test_seed_on_a_spec_that_is_not_an_object_exits_2(self, tmp_path, caplog):
        # the seed used to be written into the JSON before its type was checked
        dist = tmp_path / "list.json"
        dist.write_text("[1, 2]")
        code = run("--seed", 3, "gen-samples", "--dist", dist, "--count", 5,
                   "--out", tmp_path / "a.csv")
        assert code == 2
        assert "distribution spec JSON must be an object" in caplog.text

    @pytest.mark.parametrize("kind, d, seed, params, named", BAD_SPECS)
    def test_bad_spec_exits_2_naming_the_parameter(
        self, kind, d, seed, params, named, tmp_path, caplog
    ):
        dist = json.dumps({"kind": kind, "d": d, "seed": seed, "params": params})
        code = run("gen-samples", "--dist", dist, "--count", 5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert named in caplog.text
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_parameter_exits_2(self, tmp_path, caplog):
        dist = '{"kind":"beta","d":2,"params":{"a":2,"beta":5}}'
        code = run("gen-samples", "--dist", dist, "--count", 5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "beta params take no 'beta'" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("base_d", (1, 3))
    def test_indicator_base_of_another_dimension_exits_2(self, base_d, tmp_path, caplog):
        dist = json.dumps({"kind": "indicator", "d": 2, "params": {
            "base": {"kind": "uniform", "d": base_d}, "region": "x[0] < 0.5"}})
        code = run("gen-samples", "--dist", dist, "--count", 5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "indicator base must be a spec of dimension 2" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("d, count, code", [(2, 5, 0), (3, 5, 2), (2, 60, 4)])
    def test_file_source_checks_dimension_and_count(self, d, count, code, tmp_path):
        source = tmp_path / "fifty.csv"
        assert run("--seed", 3, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 50, "--out", source) == 0
        dist = json.dumps({"kind": "file", "d": d, "params": {"path": str(source)}})
        out = tmp_path / "x.csv"
        assert run("gen-samples", "--dist", dist, "--count", count, "--out", out) == code
        if code == 0:
            assert read_samples(out).count == count

    def test_spec_without_kind_exits_2(self, tmp_path, caplog):
        code = run("gen-samples", "--dist", '{"d": 2}', "--count", 5,
                   "--out", tmp_path / "x.csv")
        assert code == 2
        assert "'kind'" in caplog.text

    def test_every_name_round_trips_through_build(self, tmp_path):
        # the writer used to write CSV under any name unless given `--format
        # bin`, and the readers to choose by suffix: every name but s.csv exited 2
        want = generate(DistributionSpec.from_json_dict(json.loads(UNIFORM_2D)), 60).points
        for name in ("s.csv", "s.bin", "s.dat", "s.txt", "s"):
            out = tmp_path / name
            assert run("gen-samples", "--dist", UNIFORM_2D, "--count", 60, "--out", out) == 0
            assert read_samples(out).points.tobytes() == want.tobytes()
            assert run("build", "--samples", out, "--degree-size", 6,
                       "--out", tmp_path / "rule.json") == 0

    def test_there_is_no_format_option(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run("gen-samples", "--dist", UNIFORM_2D, "--count", 5, "--out", tmp_path / "x",
                "--format", "bin")
        assert exit_.value.code == 2

    def test_indicator_over_a_file_with_too_few_rows_inside_exits_4(self, tmp_path, caplog):
        source = tmp_path / "u.csv"
        write_samples(SampleSet(np.random.default_rng(0).random((3000, 2))), source)
        dist = json.dumps({"kind": "indicator", "d": 2, "params": {
            "base": {"kind": "file", "d": 2, "params": {"path": str(source)}},
            "region": "x[0] < 0.01"}})
        out = tmp_path / "x.csv"
        assert run("gen-samples", "--dist", dist, "--count", 31, "--out", out) == 4
        assert "28 of 3000 rows in the region" in caplog.text
        assert not out.exists()
        assert run("gen-samples", "--dist", dist, "--count", 28, "--out", out) == 0

    def test_same_seed_identical_files(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for out in (a, b):
            assert run("--seed", 9, "gen-samples", "--dist", UNIFORM_2D,
                       "--count", 500, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def sample_file(tmp_path):
    out = tmp_path / "samples.csv"
    assert run("--seed", 1, "gen-samples", "--dist", UNIFORM_2D,
               "--count", 800, "--out", out) == 0
    return out


class TestBuild:
    def test_build_small(self, sample_file, tmp_path, capsys):
        out = tmp_path / "rule.json"
        code = run("build", "--samples", sample_file, "--degree-size", 6,
                   "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "nodes" in printed and "moment_residual" in printed
        resid = float(printed.split("moment_residual")[1].split()[0])
        assert resid <= 1e-8
        rule = QuadratureRule.load(out)
        assert rule.n_nodes <= 6

    def test_monte_carlo_echo_when_sizes_match(self, tmp_path):
        samples = tmp_path / "tiny.csv"
        assert run("--seed", 2, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 6, "--out", samples) == 0
        out = tmp_path / "rule.json"
        assert run("build", "--samples", samples, "--degree-size", 6,
                   "--out", out) == 0
        rule = QuadratureRule.load(out)
        np.testing.assert_allclose(rule.weights, np.full(6, 1 / 6), atol=1e-15)

    def test_insufficient_samples_exit_4(self, tmp_path):
        samples = tmp_path / "tiny.csv"
        assert run("--seed", 2, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 4, "--out", samples) == 0
        assert run("build", "--samples", samples, "--degree-size", 6,
                   "--out", tmp_path / "r.json") == 4

    def test_non_finite_sample_exits_2(self, tmp_path):
        samples = tmp_path / "nan.csv"
        samples.write_text("0.1,0.2\n0.3,nan\n0.5,0.6\n0.7,0.8\n")
        assert run("build", "--samples", samples, "--degree-size", 3,
                   "--out", tmp_path / "r.json") == 2

    def test_samples_too_wide_to_map_exit_2(self, tmp_path, caplog):
        # the first column spans [-1e308, 1e308], whose width no float holds
        samples = tmp_path / "wide.csv"
        samples.write_text("-1e308,0.2\n1e308,0.4\n0.5,0.6\n0.7,0.8\n")
        out = tmp_path / "r.json"
        assert run("build", "--samples", samples, "--degree-size", 3, "--out", out) == 2
        assert "box [-1e+308, 1e+308] is too wide to map" in caplog.text
        assert not out.exists()

    def test_samples_without_columns_exit_2(self, tmp_path, caplog):
        samples = tmp_path / "flat.bin"
        samples.write_bytes(MAGIC + struct.pack("<II", 0, 5))
        assert run("build", "--samples", samples, "--degree-size", 3,
                   "--out", tmp_path / "r.json") == 2
        assert "d >= 1" in caplog.text

    @pytest.mark.parametrize("blob, named", [
        (MAGIC + struct.pack("<I", 2), "header of 12 bytes"),
        (b"\xff\xfe0.5,0.25\n", "neither a binary sample file nor UTF-8 text"),
    ], ids=["short-header", "not-utf-8"])
    def test_unreadable_samples_exit_2(self, blob, named, tmp_path, caplog):
        samples = tmp_path / "odd.dat"
        samples.write_bytes(blob)
        assert run("build", "--samples", samples, "--degree-size", 3,
                   "--out", tmp_path / "r.json") == 2
        assert named in caplog.text

    def test_null_space_failure_exits_5(self, sample_file, tmp_path, caplog, monkeypatch):
        def failing_build(samples, spec):
            raise NullSpaceFailure("stream failed at sample 7: injected", sample_index=7)

        monkeypatch.setattr(samplequad.cli, "construct_fixed_rule", failing_build)
        out = tmp_path / "r.json"
        assert run("build", "--samples", sample_file, "--degree-size", 6, "--out", out) == 5
        assert "stream failed at sample 7: injected" in caplog.text
        assert not out.exists()

    def test_missing_file_exit_3(self, tmp_path):
        assert run("build", "--samples", tmp_path / "absent.csv",
                   "--degree-size", 4, "--out", tmp_path / "r.json") == 3

    @pytest.mark.parametrize("basis", ["legendre", "monomial"])
    def test_there_is_no_basis_option(self, basis, sample_file, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run("build", "--samples", sample_file, "--degree-size", 6, "--basis", basis,
                "--out", tmp_path / "r.json")
        assert exit_.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_seed_exits_2_as_build_draws_nothing(self, sample_file, tmp_path, caplog):
        out = tmp_path / "r.json"
        assert run("--seed", 3, "build", "--samples", sample_file, "--degree-size", 6,
                   "--out", out) == 2
        assert "build draws nothing, so it takes no --seed" in caplog.text
        assert not out.exists()


class TestExtend:
    def test_degree_chain_nested(self, sample_file, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        r2 = tmp_path / "r2.json"
        assert run("extend", "--rule", r1, "--samples", sample_file,
                   "--degree-size", 11, "--mode", "degree", "--out", r2) == 0
        printed = capsys.readouterr().out
        assert "node_count_bound ok" in printed
        a = QuadratureRule.load(r1)
        b = QuadratureRule.load(r2)
        keys = {row.tobytes() for row in a.nodes}
        assert keys <= {row.tobytes() for row in b.nodes}

    def test_removal_cap_chooses_among_found_removals(self, sample_file, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        assert run("extend", "--rule", r1, "--samples", sample_file,
                   "--degree-size", 11, "--mode", "degree", "--removal-cap", 1,
                   "--out", tmp_path / "r2.json") == 0
        assert "node_count_bound ok" in capsys.readouterr().out

    def test_seed_exits_2_as_extend_draws_nothing(self, sample_file, tmp_path, caplog):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        out = tmp_path / "r2.json"
        assert run("--seed", 0, "extend", "--rule", r1, "--samples", sample_file,
                   "--degree-size", 11, "--mode", "degree", "--out", out) == 2
        assert "extend draws nothing, so it takes no --seed" in caplog.text
        assert not out.exists()

    def test_removal_cap_below_one_exits_2(self, sample_file, tmp_path, caplog):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        out = tmp_path / "r2.json"
        assert run("extend", "--rule", r1, "--samples", sample_file,
                   "--degree-size", 11, "--mode", "degree", "--removal-cap", 0,
                   "--out", out) == 2
        assert "removal_cap must be at least 1" in caplog.text
        assert not out.exists()

    def test_resampled_mode_with_fresh_file(self, sample_file, tmp_path, monkeypatch):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        fresh = tmp_path / "fresh.csv"
        assert run("--seed", 77, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 600, "--out", fresh) == 0
        r2 = tmp_path / "r2.json"
        svd = svd_calls(monkeypatch)
        assert run("extend", "--rule", r1, "--samples", fresh,
                   "--degree-size", 8, "--mode", "resampled", "--out", r2) == 0
        # the stream starts from a degenerate square base, not an SVD null basis
        assert svd == []
        b = QuadratureRule.load(r2)
        assert b.weights.min() >= -1e-12

    def test_zero_node_rule_exits_2(self, sample_file, tmp_path, caplog):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5,
                   "--out", r1) == 0
        empty = json.loads(r1.read_text())
        empty.update(nodes=[], weights=[], source_indices=[], fixed_mask=[])
        r0 = tmp_path / "r0.json"
        r0.write_text(json.dumps(empty))
        assert run("extend", "--rule", r0, "--samples", sample_file,
                   "--degree-size", 5, "--mode", "degree", "--out", tmp_path / "r.json") == 2
        assert "construct_fixed_rule" in caplog.text

    @pytest.mark.parametrize("edit, named", [
        (lambda rule: rule.pop("fixed_mask"), "'fixed_mask'"),
        (lambda rule: rule["spec"].pop("d"), "'d'"),
        (lambda rule: rule.update(source_indices=rule["source_indices"][:3]), "source_indices"),
        (lambda rule: rule.update(fixed_mask=rule["fixed_mask"][:3]), "fixed_mask"),
        (lambda rule: rule["spec"].pop("family"), "lacks 'family'"),
        (lambda rule: rule["spec"].update(family="monomial"), "unknown basis family 'monomial'"),
        (lambda rule: rule["spec"].update(family="legendre"), "unknown basis family 'legendre'"),
    ], ids=["no-fixed-mask", "spec-without-d", "short-source-indices", "short-fixed-mask",
            "spec-without-family", "monomial-family", "other-family"])
    def test_malformed_rule_file_exits_2(self, edit, named, sample_file, tmp_path, caplog):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 6,
                   "--out", r1) == 0
        rule = json.loads(r1.read_text())
        edit(rule)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rule))
        assert run("extend", "--rule", bad, "--samples", sample_file,
                   "--degree-size", 10, "--mode", "degree", "--out", tmp_path / "r.json") == 2
        assert named in caplog.text

    @pytest.mark.parametrize("edit, named", [
        (lambda rule: rule.update(weights=[-w for w in rule["weights"]]), "'weights'"),
        (lambda rule: rule["weights"].__setitem__(0, float("nan")), "'weights'"),
        (lambda rule: rule.update(K=-5), "'K'"),
        (lambda rule: rule.update(K=len(rule["nodes"]) - 2), "'K'"),
        (lambda rule: rule.update(K=rule["K"] + 0.9), "'K'"),
        (lambda rule: rule.update(K=True), "'K'"),
        (lambda rule: rule["spec"].update(d=2.9), "'d'"),
        (lambda rule: rule["source_indices"].__setitem__(0, 0.7), "'source_indices'"),
        (lambda rule: rule["fixed_mask"].__setitem__(0, "x"), "'fixed_mask'"),
        (lambda rule: rule.update(K=str(rule["K"])), "'K'"),
        (lambda rule: rule["spec"].update(size="6"), "'size'"),
        (lambda rule: rule["weights"].__setitem__(0, True), "'weights'"),
        (lambda rule: rule["nodes"][0].__setitem__(0, True), "'nodes'"),
        (lambda rule: rule["spec"]["domain"].__setitem__(0, [False, True]), "'domain'"),
        (lambda rule: rule["spec"]["domain"].__setitem__(0, 0.5), "'domain'"),
        (lambda rule: rule["spec"]["domain"][0].append(2.0), "'domain'"),
        (lambda rule: rule["spec"].update(domain="ab"), "'domain'"),
        (lambda rule: rule.update(spec=5), "spec JSON must be an object"),
        (lambda rule: rule["nodes"][0].append(0.5), "'nodes'"),
        (lambda rule: rule["source_indices"].__setitem__(0, 10**30), "'source_indices'"),
        (lambda rule: rule["source_indices"].__setitem__(0, -7), "'source_indices'"),
        (lambda rule: rule["nodes"][0].__setitem__(0, float("nan")), "'nodes'"),
        (lambda rule: rule["nodes"][0].__setitem__(1, float("inf")), "'nodes'"),
        (lambda rule: rule["spec"]["domain"][0].__setitem__(1, float("inf")), "'domain'"),
        (lambda rule: rule["weights"].__setitem__(0, 10**400), "'weights'"),
        (lambda rule: rule["spec"]["domain"].__setitem__(0, [-1e308, 1e308]), "'domain'"),
    ], ids=["negated-weights", "nan-weight", "negative-K", "K-below-node-count", "float-K",
            "bool-K", "float-d", "float-index", "str-mask", "str-K", "str-size", "bool-weight",
            "bool-node", "bool-domain", "number-box", "three-ends-box", "str-domain",
            "number-spec", "ragged-nodes", "huge-source-index", "source-index-below-minus-one",
            "nan-node", "infinite-node", "infinite-domain", "int-beyond-float-weight",
            "too-wide-domain"])
    def test_invalid_rule_values_exit_2_before_streaming(
        self, edit, named, tmp_path, caplog, monkeypatch
    ):
        samples = tmp_path / "s.csv"
        assert run("--seed", 1, "gen-samples", "--dist", UNIFORM_2D,
                   "--count", 300, "--out", samples) == 0
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", samples, "--degree-size", 6, "--out", r1) == 0
        rule = json.loads(r1.read_text())
        edit(rule)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rule))

        def no_stream(*args, **kwargs):
            raise AssertionError("the stream must not start")

        monkeypatch.setattr(samplequad.nested, "run_stream", no_stream)
        out = tmp_path / "r.json"
        assert run("extend", "--rule", bad, "--samples", samples,
                   "--degree-size", 6, "--mode", "continue", "--out", out) == 2
        assert named in caplog.text
        assert not out.exists()


    @pytest.mark.parametrize("mode", ["degree", "resampled"])
    @pytest.mark.parametrize("edit, named", [
        (lambda rule: rule["source_indices"].__setitem__(1, rule["source_indices"][0]),
         "'source_indices' repeats sample"),
        (lambda rule: [row.append(0.5) for row in rule["nodes"]],
         "nodes have 3 columns, the basis has d = 2"),
    ], ids=["repeated-source-index", "three-column-nodes"])
    def test_rule_contradicting_itself_exits_2_before_streaming(
        self, edit, named, mode, sample_file, tmp_path, caplog, monkeypatch
    ):
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 6, "--out", r1) == 0
        rule = json.loads(r1.read_text())
        assert len(rule["nodes"]) == 6
        edit(rule)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rule))

        def no_stream(*args, **kwargs):
            raise AssertionError("the stream must not start")

        monkeypatch.setattr(samplequad.nested, "run_stream", no_stream)
        out = tmp_path / "r.json"
        assert run("extend", "--rule", bad, "--samples", sample_file,
                   "--degree-size", 10, "--mode", mode, "--out", out) == 2
        assert named in caplog.text
        assert not out.exists()

    def test_huge_basis_exits_4_without_enumerating_it(self, sample_file, tmp_path, monkeypatch):
        # a billion multi-indices would take minutes and about 150 GB; the
        # sample count rules the size out first
        r1 = tmp_path / "r1.json"
        assert run("build", "--samples", sample_file, "--degree-size", 5, "--out", r1) == 0

        def no_enumeration(d, count):
            raise AssertionError(f"enumerated {count} multi-indices")

        monkeypatch.setattr(samplequad.basis, "_indices_cached", no_enumeration)
        out = tmp_path / "r.json"
        assert run("build", "--samples", sample_file, "--degree-size", 10**9, "--out", out) == 4
        for mode in ("degree", "resampled"):
            assert run("extend", "--rule", r1, "--samples", sample_file,
                       "--degree-size", 10**9, "--mode", mode, "--out", out) == 4
        assert not out.exists()


class TestBenchGenz:
    def test_config_without_required_keys_exits_2(self, tmp_path, caplog):
        code = run("bench-genz", "--config", '{"k_max": 64}', "--out", tmp_path / "r.csv")
        assert code == 2
        assert "'schedule'" in caplog.text

    @pytest.mark.parametrize("key, value, named", [
        ("repetiton", 1, "'repetiton'"),
        ("include_nonnested", "false", "include_nonnested must be a bool"),
        ("d", 3, "d=3 but the distribution has d=2"),
        ("removal_cap", 0, "removal_cap must be at least 1"),
        ("removal_cap", 2.5, "removal_cap must be an integer"),
        ("k_max", "100.5", "k_max must be an integer"),
        ("schedule", [2, 4.9], "schedule must be an integer"),
        ("repetitions", 1.7, "repetitions must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("schedule", 5, "schedule must be a list"),
        ("families", 5, "families must be a list"),
        ("families", "oscillatory", "families must be a list"),
        ("basis_family", "product_legendre", "unknown keys ['basis_family']"),
        ("schedule", [2, 2], "schedule must be strictly ascending"),
        ("families", [], "leave none to measure"),
        # 3 seed words each: more than a 47-bit address space maps, or than numpy's size limit
        ("repetitions", 2**44, "repetitions = 17592186044416 need more seeds than numpy"),
        ("repetitions", 10**30, "repetitions = " + str(10**30) + " need more seeds than numpy"),
    ])
    def test_bad_config_exits_2(self, key, value, named, tmp_path, caplog):
        config = {"d": 2, "k_max": 100, "schedule": [2, 4], "repetitions": 1,
                  "distribution": {"kind": "uniform", "d": 2}, key: value}
        out = tmp_path / "r.csv"
        assert run("bench-genz", "--config", json.dumps(config), "--out", out) == 2
        assert named in caplog.text
        assert not out.exists()

    def test_seed_override_replaces_the_config_seed(self, tmp_path):
        config = {"d": 2, "k_max": 100, "schedule": [2, 4], "repetitions": 1, "seed": 0,
                  "families": ["oscillatory"], "distribution": {"kind": "uniform", "d": 2}}
        overridden, direct = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("--seed", 5, "bench-genz", "--config", json.dumps(config),
                   "--out", overridden) == 0
        assert run("bench-genz", "--config", json.dumps({**config, "seed": 5}),
                   "--out", direct) == 0
        assert overridden.read_bytes() == direct.read_bytes()
        assert json.loads((tmp_path / "a.csv.json").read_text())["config"]["seed"] == 5

    def test_negative_seed_override_exits_2_naming_the_seed(self, tmp_path, caplog):
        config = {"d": 2, "k_max": 100, "schedule": [2, 4], "repetitions": 1,
                  "distribution": {"kind": "uniform", "d": 2}}
        out = tmp_path / "r.csv"
        assert run("--seed", -1, "bench-genz", "--config", json.dumps(config), "--out", out) == 2
        assert "seed must be at least 0" in caplog.text
        assert not out.exists()

    def test_tiny_benchmark(self, tmp_path, capsys):
        config = {
            "d": 2,
            "k_max": 300,
            "schedule": [2, 4],
            "repetitions": 1,
            "seed": 5,
            "distribution": {"kind": "uniform", "d": 2, "params": {}},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "report.csv"
        assert run("bench-genz", "--config", cfg_path, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,N,method,mean_abs_error"
        # 6 families x 2 schedule points x 2 methods
        assert len(lines) == 1 + 24
        # every error a number, the same float as the JSON report's row
        rows = json.loads((tmp_path / "report.csv.json").read_text())["errors"]
        assert len(rows) == 24
        for line, row in zip(lines[1:], rows):
            family, n, method, err = line.split(",")
            assert (family, int(n), method) == (row["family"], row["N"], row["method"])
            assert struct.pack("<d", float(err)) == struct.pack("<d", row["mean_abs_error"])

    def test_deterministic_reports(self, tmp_path):
        config = {
            "d": 2,
            "k_max": 200,
            "schedule": [2, 4],
            "repetitions": 1,
            "seed": 6,
            "distribution": {"kind": "uniform", "d": 2, "params": {}},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("bench-genz", "--config", cfg_path, "--out", a) == 0
        assert run("bench-genz", "--config", cfg_path, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exit_7_when_every_chain_fails(self, tmp_path, caplog, monkeypatch):
        def failing_extend(req, **kwargs):
            raise NullSpaceFailure("injected extension failure")

        monkeypatch.setattr(samplequad.bench, "extend_rule", failing_extend)
        config = {
            "d": 2, "k_max": 100, "schedule": [2, 4], "repetitions": 2,
            "distribution": {"kind": "uniform", "d": 2},
        }
        out = tmp_path / "r.csv"
        assert run("bench-genz", "--config", json.dumps(config), "--out", out) == 7
        assert "nested chain failed in every repetition" in caplog.text
        assert not out.exists()

    def test_rosenbrock_warns_about_the_corner_peak(self, tmp_path, caplog):
        config = {
            "d": 2, "k_max": 100, "schedule": [2, 4], "repetitions": 1,
            "families": ["oscillatory", "corner_peak"],
            "distribution": {"kind": "rosenbrock", "d": 2},
        }
        out = tmp_path / "r.csv"
        assert run("bench-genz", "--config", json.dumps(config), "--out", out) == 0
        assert "corner peak excluded" in caplog.text
        assert "corner_peak" not in out.read_text()


class TestModuleEntry:
    def test_python_m_samplequad_runs_from_the_checkout(self, tmp_path):
        src = Path(samplequad.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "samplequad", *map(str, argv)],
                                  env=env, cwd=tmp_path, capture_output=True, text=True,
                                  timeout=120)

        out = tmp_path / "s.csv"
        done = module("--seed", 1, "gen-samples", "--dist", UNIFORM_2D, "--count", 10,
                      "--out", out)
        assert done.returncode == 0, done.stderr
        assert read_samples(out).count == 10
        # the exit code of `main` is the process's
        bad = module("bench-genz", "--config", json.dumps(
            {"d": 2, "k_max": 100, "schedule": 5, "distribution": {"kind": "uniform", "d": 2}}
        ), "--out", tmp_path / "r.csv")
        assert bad.returncode == 2
        assert "schedule must be a list" in bad.stderr
