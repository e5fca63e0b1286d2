"""The benchmark's timing shims must find every name they wrap.

`perfbench/spans.py` replaces public names of the package with timing
shims.  A name it cannot resolve is recorded as missing, and every
per-layer metric that needs it goes missing with it, so deleting or
renaming such a name must fail here rather than silently in a traced
benchmark run.  Likewise a step that bypasses the names a metric counts.
"""

import importlib.util
from pathlib import Path

import samplequad.rule
from samplequad.nested import _StreamEngine
from test_nested import SEED_CORPUS, _increase_degree_chain

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shimmed_name_resolves():
    spans = _load_spans()
    original = samplequad.rule.choose_alpha
    tracer = spans.Tracer()
    try:
        tracer.install()
        _, missing_metrics = spans.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert missing_metrics == []
    assert samplequad.rule.choose_alpha is original


def test_every_multi_direction_step_is_traced(monkeypatch):
    # `nested.multi_dir.calls` counts `from_parts` spans, and the removal
    # metrics `enumerate` spans: a step that built its problem another
    # way would be missing from both
    steps = []
    multi = _StreamEngine._multi_direction
    monkeypatch.setattr(_StreamEngine, "_multi_direction",
                        lambda self, *args: steps.append(1) or multi(self, *args))
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        _increase_degree_chain(*SEED_CORPUS[0])
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert steps
    assert totals["from_parts"][0] == totals["enumerate"][0] == len(steps)
    metrics, _ = spans.layer_metrics(tracer, 1)
    assert metrics["nested.multi_dir.calls"][0] == len(steps)
