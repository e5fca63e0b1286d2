"""Property: `extend` on a rule file with one field mutated exits 0, 2 or 4.

A valid rule's JSON gets one field, or one entry of a list field,
replaced by a value of another type or out of range.  `cli.main` must
extend the rule or reject it with a typed error (exit 2 for a bad file,
4 for too few samples), never end in an uncaught exception, which a
process reports as exit 1.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplequad.cli import main

UNIFORM_2D = '{"kind":"uniform","d":2,"params":{"lo":0.0,"hi":1.0}}'
BASE_SIZE, TARGET_SIZE = 4, 6
# 10**400 is an integer no float holds
VALUES = (True, False, "x", None, math.nan, math.inf, -math.inf, 10**30, 10**400, -7, [[0.5]])
MODES = ("continue", "degree", "resampled")


def _paths(value, path=()):
    """The path of `value` and of every field and list entry inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("rule-files")
    samples, rule = folder / "s.csv", folder / "r.json"
    assert main(["--seed", "1", "gen-samples", "--dist", UNIFORM_2D, "--count", "40",
                 "--out", str(samples)]) == 0
    assert main(["build", "--samples", str(samples), "--degree-size", str(BASE_SIZE),
                 "--out", str(rule)]) == 0
    return folder, samples, json.loads(rule.read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), value=st.sampled_from(VALUES), mode=st.sampled_from(MODES))
def test_a_mutated_field_exits_0_2_or_4(files, data, value, mode):
    folder, samples, valid = files
    rule = json.loads(json.dumps(valid))
    path = data.draw(st.sampled_from(list(_paths(rule))[1:]), label="path")
    if path == ("spec", "size") and value in (10**30, 10**400):
        # a size the basis could enumerate, should a regression enumerate it
        value = 10**6
    inner = rule
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    bad = folder / "bad.json"
    bad.write_text(json.dumps(rule))
    size = BASE_SIZE if mode == "continue" else TARGET_SIZE
    code = main(["extend", "--rule", str(bad), "--samples", str(samples), "--degree-size",
                 str(size), "--mode", mode, "--out", str(folder / "out.json")])
    assert code in (0, 2, 4)
