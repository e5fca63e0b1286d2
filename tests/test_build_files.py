"""Property: `build` on a sample file with one row or cell mutated exits 0, 2, 3, 4 or 5.

A small valid uniform sample file, CSV or binary, gets one cell set to
NaN, ±inf or ±1e308, one row duplicated or cut short, one column made
constant, or the file truncated or emptied, and `--degree-size` is
drawn from a menu.  `cli.main` must build a rule or reject the input
with a typed error, never end in an uncaught exception, which a process
reports as exit 1.  The steps `build` runs raise only `SampleQuadError`
subclasses.  A rule it writes keeps the paper's invariants on the file's
samples, and a second run writes the same bytes.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplequad.basis import BasisSpec, domain_from_samples
from samplequad.cli import main
from samplequad.errors import SampleQuadError
from samplequad.rule import QuadratureRule, construct_fixed_rule, sample_moments
from samplequad.sampling import MAGIC, DistributionSpec, generate, read_samples

ROWS = 24
CELLS = (math.nan, math.inf, -math.inf, 1e308, -1e308)
MUTATIONS = ("cell", "duplicate", "ragged", "constant", "truncate", "empty")
SIZES = (0, 1, ROWS, ROWS + 1, 10**9)


@pytest.fixture(scope="module")
def valid():
    return generate(DistributionSpec("uniform", 2, seed=1), ROWS).points


def _mutated_file(path, points, mutation, data):
    """Write `points` to `path` with one mutation drawn from `data`."""
    points = points.copy()
    row = data.draw(st.integers(0, ROWS - 1), label="row")
    col = data.draw(st.integers(0, 1), label="column")
    if mutation == "cell":
        points[row, col] = data.draw(st.sampled_from(CELLS), label="value")
    elif mutation == "duplicate":
        points[row] = points[data.draw(st.integers(0, ROWS - 1), label="copied")]
    elif mutation == "constant":
        points[:, col] = points[row, col]
    # by hand, as `write_samples` takes only finite samples
    if path.suffix == ".bin":
        blob = MAGIC + struct.pack("<II", 2, ROWS) + points.astype("<f8").tobytes()
    else:
        lines = [",".join(repr(float(v)) for v in r) for r in points]
        if mutation == "ragged":
            lines[row] = lines[row].split(",")[0]
        blob = ("\n".join(lines) + "\n").encode()
    if mutation == "truncate":
        blob = blob[: data.draw(st.integers(1, len(blob) - 1), label="length")]
    elif mutation == "empty":
        blob = b""
    path.write_bytes(blob)


def _build_steps(path, size):
    """The steps of `cmd_build`, or None where one raised a typed error."""
    try:
        samples = read_samples(path)
        spec = BasisSpec(d=samples.d, size=size, domain=domain_from_samples(samples.points))
        return samples, construct_fixed_rule(samples, spec)
    except SampleQuadError:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), mutation=st.sampled_from(MUTATIONS),
       suffix=st.sampled_from((".csv", ".bin")), size=st.sampled_from(SIZES))
def test_a_mutated_sample_file_builds_or_exits_typed(valid, tmp_path_factory, data, mutation,
                                                     suffix, size):
    folder = tmp_path_factory.mktemp("build")
    samples_path = folder / f"s{suffix}"
    _mutated_file(samples_path, valid, mutation, data)
    out, again = folder / "r.json", folder / "again.json"
    argv = ["build", "--samples", str(samples_path), "--degree-size", str(size), "--out"]
    code = main(argv + [str(out)])
    assert code in (0, 2, 3, 4, 5)
    built = _build_steps(samples_path, size)
    assert (built is not None) == (code == 0)
    if code != 0:
        assert not out.exists()
        return
    samples, _ = built
    rule = QuadratureRule.load(out)
    assert rule.weights.min() >= 0.0
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert rule.moment_residual(sample_moments(samples, rule.spec)) <= 1e-8
    rows = {r.tobytes() for r in samples.points}
    assert all(node.tobytes() in rows for node in rule.nodes)
    assert rule.n_nodes <= size
    assert main(argv + [str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
