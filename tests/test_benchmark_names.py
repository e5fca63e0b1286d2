"""The benchmark's timing shims must find every name they wrap.

`perfbench/spans.py` replaces public names of the package with timing
shims.  A name it cannot resolve is recorded as missing, and every
per-layer metric that needs it goes missing with it, so deleting or
renaming such a name must fail here rather than silently in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import samplequad.rule

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
