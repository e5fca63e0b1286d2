"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload once through run.py, check that the output
checker rejects corrupted rules, and that a vanished public name is
reported as missing metrics rather than a crash.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from checks import check_rule  # noqa: E402
from workloads import SMALL, ChainCapture, sub_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def capture():
    cap = ChainCapture()
    yield cap
    cap.close()


@pytest.fixture(scope="module")
def fixed():
    """A valid fixed rule and the samples it was built from."""
    wl = SMALL["stream-d2"]
    samples, _, rule = wl.run(wl.make_input(sub_seed(7, 0)), None).rules[0]
    return samples, rule


@pytest.fixture(scope="module")
def chain(capture):
    """The result of a valid Genz repetition."""
    wl = SMALL["genz-uniform"]
    return wl.run(wl.make_input(sub_seed(7, 0)), capture)


def _with(rule, **changes):
    return dataclasses.replace(rule, **{k: v.copy() for k, v in changes.items()})


def test_checker_accepts_valid_rules(fixed, chain):
    samples, rule = fixed
    assert check_rule(rule, samples) == []
    assert chain.check() == []


def test_checker_rejects_negative_weight(fixed):
    samples, rule = fixed
    w = rule.weights.copy()
    w[0] = -w[0]
    problems = check_rule(_with(rule, weights=w), samples)
    assert any("negative weight" in p for p in problems)


def test_checker_rejects_node_that_is_not_a_sample(fixed):
    samples, rule = fixed
    nodes = rule.nodes.copy()
    nodes[0] = np.nextafter(nodes[0], np.inf)
    problems = check_rule(_with(rule, nodes=nodes), samples)
    assert any("not sample rows" in p for p in problems)


def test_checker_rejects_residual_above_tolerance(fixed):
    samples, rule = fixed
    w = rule.weights.copy()
    w[0] += 1e-6
    problems = check_rule(_with(rule, weights=w), samples)
    assert problems and all("moment residual" in p for p in problems)


def test_checker_rejects_broken_chain(chain):
    calls = list(chain.rules)
    samples, _, rule = calls[2]
    calls[2] = (samples, calls[0][2], rule)  # claims to extend the first rule
    broken = dataclasses.replace(chain, rules=calls)
    assert any("does not extend" in p for p in broken.check())
    short = dataclasses.replace(chain, rules=chain.rules[:-1])
    assert any("were expected" in p for p in short.check())


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }


def test_same_seed_gives_same_digests():
    records = []
    for _ in range(2):
        out = _run("--workload", "genz-banana", "--seed", "5", "--seconds", "1",
                   "--trace", "0", "--small")
        assert out.returncode == 0, out.stderr
        path = HERE / "out" / "genz-banana-seed5-trace0-small.json"
        records.append(json.loads(path.read_text())["digests"])
    assert records[0][0] == records[1][0]


def test_missing_name_is_reported_not_raised(monkeypatch, fixed):
    monkeypatch.setattr(
        spans, "SHIMS", spans.SHIMS + (("samplequad.linalg", "gone_solver", "svd"),)
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        samples, rule = fixed
        spec = rule.spec
        wl = SMALL["stream-d2"]
        tracer.call(spans.ROOT, wl.run, (samples, spec), None)
    finally:
        tracer.uninstall()
    metrics, missing = spans.layer_metrics(tracer, 1)
    assert tracer.missing == ["samplequad.linalg.gone_solver"]
    assert "linalg.svd_fallback.calls" in missing
    assert "linalg.svd_fallback.calls" not in metrics
    assert metrics["linalg.null_vec.calls"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "stream-d2", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
