"""Property: `bench-genz` on a config with one field mutated exits 0, 2, 4 or 7.

A small valid experiment config, over a uniform or a Rosenbrock
distribution, gets one field, or one entry of a list or of the
distribution, replaced by a value of another type or out of range.
`cli.main` must run the experiment or reject the config with a typed
error (exit 2 for a bad config, 4 for too few samples, 7 where the
nested chain failed in every repetition), never end in an uncaught
exception, which a process reports as exit 1.  Where it runs, the CSV
report must hold rows, one number in each, and a Monte Carlo row for
every measured family at every rule size of the schedule.
"""

import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplequad.bench import MONTE_CARLO, ExperimentConfig
from samplequad.cli import main

# 10**400 is an integer no float holds; 2**48 samples or seeds no machine allocates
VALUES = (True, False, "x", "", None, {}, [], [0.5], [4, 4], math.nan, math.inf, -math.inf,
          0, 1, 2, 4, 8, -7, 0.5, 10**30, 10**400, 2**48, "oscillatory", "corner_peak", "normal")
CONFIGS = [
    {"d": 2, "k_max": 64, "schedule": [4, 8], "repetitions": 1, "seed": 1,
     "include_nonnested": False, "families": ["oscillatory", "corner_peak"],
     "removal_cap": 128, "distribution": dist}
    for dist in ({"kind": "uniform", "d": 2, "seed": 0, "params": {"lo": 0.0, "hi": 1.0}},
                 {"kind": "rosenbrock", "d": 2, "seed": 0, "params": {"a": 1.0, "b": 10.0}})
]


def _paths(value, path=()):
    """The path of `value` and of every field and list entry inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), value=st.sampled_from(VALUES))
def test_a_mutated_config_exits_0_2_4_or_7(tmp_path_factory, data, value):
    config = json.loads(json.dumps(data.draw(st.sampled_from(CONFIGS), label="config")))
    path = data.draw(st.sampled_from(list(_paths(config))[1:]), label="path")
    inner = config
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    out = tmp_path_factory.mktemp("bench-genz") / "r.csv"
    code = main(["bench-genz", "--config", json.dumps(config), "--out", str(out)])
    assert code in (0, 2, 4, 7)
    if code != 0:
        assert not out.exists()
        return
    parsed = ExperimentConfig.from_json_dict(config)
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["family", "N", "method", "mean_abs_error"]
    # a report that measures nothing is no report
    assert rows
    for family, n, method, err in rows:
        int(n), float(err)
    monte_carlo = sorted((f, int(n)) for f, n, m, _ in rows if m == MONTE_CARLO)
    # a family listed twice is measured once
    assert monte_carlo == sorted((f, n) for f in set(parsed.active_families())
                                 for n in parsed.schedule)
