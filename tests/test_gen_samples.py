"""Property: `gen-samples` on a spec with one field mutated exits 0, 2 or 4.

A valid `--dist` spec of each kind gets its kind, `d`, `seed`, or one
parameter's key or value replaced by a value of another type or out of
range, and the output gets one of four names.  `cli.main` must write the
samples or reject the spec with a typed error (exit 2 for a bad spec, 4
for too few samples), never end in an uncaught exception, which a
process reports as exit 1.  Where it writes them, the file must read
back as the generated points, bit for bit, whatever its name.
"""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplequad.cli import main
from samplequad.sampling import DistributionSpec, generate, read_samples

COUNT = 5
# 10**400 is an integer no float holds; 2**48 coordinates no machine allocates
VALUES = (True, False, "x", "", None, {}, [], [0.5], [1, 2, 3], math.nan, math.inf, -math.inf,
          0, -7, 0.5, 2.5, 10**30, 10**400, 2**48)
KINDS = ("uniform", "normal", "beta", "rosenbrock", "indicator", "file", "nope")
KEYS = ("format", "Lo", "", "alpha", "burnin", "base")
NAMES = ("out.csv", "out.bin", "out.dat", "out")


def _valid_specs(source):
    """One valid spec of each kind; the `file` spec reads `source`."""
    # a short chain, so that 300 examples take well under a second of chains
    short = {"burn_in": 200, "thinning": 2}
    return [
        {"kind": "uniform", "d": 2, "seed": 1, "params": {"lo": [0, -1], "hi": 2.0}},
        {"kind": "normal", "d": 2, "seed": 2, "params": {"mean": 0.5, "sd": [1.0, 2.0]}},
        {"kind": "beta", "d": 2, "seed": 3, "params": {"a": 2.0, "b": 5.0, "lo": 0, "hi": 1}},
        {"kind": "rosenbrock", "d": 2, "seed": 4, "params": {"a": 1.0, "b": 10.0,
                                                             "step": 0.25, **short}},
        {"kind": "indicator", "d": 2, "seed": 5, "params": {
            "base": {"kind": "uniform", "d": 2}, "region": "x[0] < x[1]"}},
        {"kind": "file", "d": 2, "params": {"path": str(source)}},
    ]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("gen-samples")
    source = folder / "source.csv"
    assert main(["--seed", "1", "gen-samples", "--dist", '{"kind":"uniform","d":2}',
                 "--count", "40", "--out", str(source)]) == 0
    return folder, _valid_specs(source)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(NAMES))
def test_a_mutated_spec_exits_0_2_or_4(folder, data, name):
    folder, specs = folder
    spec = json.loads(json.dumps(data.draw(st.sampled_from(specs), label="spec")))
    field = data.draw(st.sampled_from(("kind", "d", "seed", "key", "value")), label="field")
    if field == "kind":
        spec["kind"] = data.draw(st.sampled_from(KINDS + VALUES), label="kind")
    elif field in ("d", "seed"):
        spec[field] = data.draw(st.sampled_from(VALUES), label=field)
    else:
        params = spec["params"]
        key = data.draw(st.sampled_from(sorted(params)), label="param")
        value = params.pop(key)
        if field == "key":
            params[data.draw(st.sampled_from(KEYS), label="new key")] = value
        else:
            params[key] = data.draw(st.sampled_from(VALUES), label="new value")
    out = folder / name
    out.unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as patch:
        # a relative path that a mutation names resolves here, where no such file is
        patch.chdir(folder)
        code = main(["gen-samples", "--dist", json.dumps(spec), "--count", str(COUNT),
                     "--out", str(out)])
        # exit 3 is an I/O failure, right for a `file` spec whose path names no file
        path = spec["params"].get("path") if spec["kind"] == "file" else None
        missing = isinstance(path, str) and not os.path.isfile(path)
    assert code in (0, 2, 4) or (code == 3 and missing)
    if code == 0:
        want = generate(DistributionSpec.from_json_dict(spec), COUNT).points
        assert read_samples(out).points.tobytes() == want.tobytes()
    else:
        assert not out.exists()
