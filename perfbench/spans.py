"""Timing shims around the public names of each samplequad layer.

The benchmark never edits the program.  A traced run replaces public
names with shims in the namespace each caller looks them up from (for
example `samplequad.rule.choose_alpha`, not `samplequad.choose_alpha`),
records one span per call, and puts the originals back afterwards.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded,
so the children of one span never overlap.  Durations are multiplied by
the pace scale of the operation they belong to (see worker.Reference),
so layer times add up to the scaled operation times.

A name that no longer exists is recorded as missing instead of raising,
so that a later refactor of the program shows up as missing metrics.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path, span name); the attribute is replaced in the
# module where the calling code resolves it
SHIMS = (
    ("samplequad.basis", "basis_matrix", "basis_matrix"),
    ("samplequad.rule", "basis_matrix", "basis_matrix"),
    ("samplequad.nested", "basis_matrix", "basis_matrix"),
    ("samplequad.removal", "basis_matrix", "basis_matrix"),
    ("samplequad.linalg", "basis_matrix", "basis_matrix"),
    ("samplequad.rule", "choose_alpha", "choose_alpha"),
    ("samplequad.rule", "apply_removal", "apply_removal"),
    ("samplequad.nested", "apply_removal", "apply_removal"),
    ("samplequad.nested", "removal_interval", "removal_interval"),
    ("samplequad.rule", "sample_moments", "sample_moments"),
    ("samplequad.nested", "sample_moments", "sample_moments"),
    ("samplequad.rule", "construct_fixed_rule", "construct_fixed_rule"),
    ("samplequad.bench", "construct_fixed_rule", "construct_fixed_rule"),
    ("samplequad.linalg", "ExtensionFactorization.null_vector_extended", "null_vec"),
    ("samplequad.linalg", "null_vector", "svd"),
    ("samplequad.nested", "null_vector", "svd"),
    ("samplequad.nested", "null_space", "svd"),
    ("samplequad.removal", "null_space", "svd"),
    ("samplequad.linalg", "ExtensionFactorization.replace_column", "exchange"),
    ("samplequad.linalg", "ExtensionFactorization.__init__", "refactor"),
    ("samplequad.linalg", "ExtensionFactorization.append_column", "refactor"),
    ("samplequad.linalg", "ExtensionFactorization.remove_columns", "refactor"),
    ("samplequad.removal", "RemovalProblem.enumerate", "enumerate"),
    ("samplequad.removal", "RemovalProblem.vertex_weights", "vertex_weights"),
    ("samplequad.removal", "RemovalProblem.from_parts", "from_parts"),
    ("samplequad.bench", "extend_rule", "extend_rule"),
    ("samplequad.bench", "generate", "generate"),
    ("samplequad.bench", "genz_eval_many", "genz_eval"),
)

# the span the benchmark opens around each operation
ROOT = "op"

RATIO_TEST = ("choose_alpha", "removal_interval", "apply_removal")

# per-layer metric -> (unit, how it is derived, span names it needs).
# "calls", "time" and "self" sum over the spans; "counter" reads the
# counter of the same name that a shim fed.
LAYER_METRICS = {
    "basis.calls": ("count", "calls", ("basis_matrix",)),
    "basis.points": ("count", "counter", ("basis_matrix",)),
    "basis.time_s": ("s", "time", ("basis_matrix",)),
    "rule.ratio_test.calls": ("count", "calls", RATIO_TEST),
    "rule.ratio_test.time_s": ("s", "time", RATIO_TEST),
    "rule.moments.time_s": ("s", "time", ("sample_moments",)),
    "rule.build.time_s": ("s", "time", ("construct_fixed_rule",)),
    "rule.build.self_s": ("s", "self", ("construct_fixed_rule",)),
    "linalg.null_vec.calls": ("count", "calls", ("null_vec",)),
    "linalg.null_vec.time_s": ("s", "time", ("null_vec",)),
    "linalg.svd_fallback.calls": ("count", "calls", ("svd",)),
    "linalg.svd_fallback.time_s": ("s", "time", ("svd",)),
    "linalg.fast_path_frac": ("fraction", "fast_path", ("null_vec", "svd")),
    "linalg.exchange.calls": ("count", "calls", ("exchange",)),
    "linalg.exchange.time_s": ("s", "time", ("exchange",)),
    "linalg.refactor.calls": ("count", "calls", ("refactor",)),
    "linalg.refactor.time_s": ("s", "time", ("refactor",)),
    "removal.enumerate.calls": ("count", "calls", ("enumerate",)),
    "removal.enumerate.time_s": ("s", "time", ("enumerate",)),
    "removal.vertices": ("count", "counter", ("enumerate",)),
    "removal.vertices_per_call": ("count", "per_enumerate", ("enumerate",)),
    "removal.pops": ("count", "counter", ("enumerate",)),
    "removal.capped": ("count", "counter", ("enumerate",)),
    "removal.vertex_weights.time_s": ("s", "time", ("vertex_weights",)),
    "nested.extend.calls": ("count", "calls", ("extend_rule",)),
    "nested.extend.time_s": ("s", "time", ("extend_rule",)),
    "nested.extend.self_s": ("s", "self", ("extend_rule",)),
    # one single-direction step makes one interval scan, one multi-direction
    # step builds one removal problem
    "nested.single_dir.calls": ("count", "calls", ("removal_interval",)),
    "nested.multi_dir.calls": ("count", "calls", ("from_parts",)),
    "sampling.generate.time_s": ("s", "time", ("generate",)),
    "bench.genz_eval.time_s": ("s", "time", ("genz_eval",)),
    "bench.rep.self_s": ("s", "self", (ROOT,)),
}


def _resolve(module: str, path: str):
    """(owner, attribute name) of a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module}.{path}")
    return owner, attr


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.weight = array("d")
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.t1)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self.weight.append(1.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def size(self) -> int:
        """Number of spans recorded so far."""
        return len(self.t1)

    def scale_since(self, first: int, factor: float) -> None:
        """Scale the durations of the spans from index `first` on."""
        for i in range(first, len(self.weight)):
            self.weight[i] *= factor

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _shim(self, fn, name: str):
        name_id = self._id(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, kwargs, out)
            return out

        return shim

    def install(self) -> None:
        """Replace every name in SHIMS that exists; note the others."""
        for module, path, name in SHIMS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                if f"{module}.{path}" not in self.missing:
                    self.missing.append(f"{module}.{path}")
                continue
            raw = vars(owner)[attr]
            shim = self._shim(getattr(owner, attr), name)
            if isinstance(raw, classmethod):
                # the shim wraps the bound method, so it must not bind again
                shim = staticmethod(shim)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, shim)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        return name, parent, dur * np.frombuffer(self.weight, dtype=float)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        name, parent, dur = self._arrays()
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.shape[0])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=own, minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, n in enumerate(self.names)
        }

    def fallbacks_in_fast_path(self) -> int:
        """SVD spans whose direct parent is a null-vector span."""
        if "svd" not in self._ids or "null_vec" not in self._ids:
            return 0
        name, parent, _ = self._arrays()
        svd_parents = parent[(name == self._ids["svd"]) & (parent >= 0)]
        return int(np.count_nonzero(name[svd_parents] == self._ids["null_vec"]))

    def save(self, path) -> None:
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.t0, dtype=float),
            end=np.frombuffer(self.t1, dtype=float),
            scale=np.frombuffer(self.weight, dtype=float),
        )


def _after_basis(tracer, kwargs, out):
    tracer.count("basis.points", out.shape[1])


def _after_enumerate(tracer, kwargs, out):
    tracer.count("removal.vertices", len(out))
    stats = kwargs.get("stats")
    if stats is not None:
        tracer.count("removal.pops", stats.get("pops", 0))
        tracer.count("removal.capped", 1.0 if stats.get("capped") else 0.0)


_AFTER = {"basis_matrix": _after_basis, "enumerate": _after_enumerate}


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics, per traced operation, from the recorded spans.

    Returns ({metric: (value, unit)}, metrics that are missing because a
    name they need could not be shimmed).  Sums are divided by `ops`;
    the two ratios are taken over the whole run.
    """
    totals = tracer.totals()
    gone = {name for module, path, name in SHIMS if f"{module}.{path}" in tracer.missing}
    out, missing = {}, []
    for metric, (unit, how, spans) in LAYER_METRICS.items():
        if gone.intersection(spans):
            missing.append(metric)
            continue
        rows = [totals.get(s, (0, 0.0, 0.0)) for s in spans]
        if how == "calls":
            value = sum(r[0] for r in rows) / ops
        elif how == "time":
            value = sum(r[1] for r in rows) / ops
        elif how == "self":
            value = sum(r[2] for r in rows) / ops
        elif how == "counter":
            value = tracer.counters.get(metric, 0.0) / ops
        elif how == "per_enumerate":
            calls = rows[0][0]
            value = tracer.counters.get("removal.vertices", 0.0) / calls if calls else 0.0
        else:  # fast_path
            calls = rows[0][0]
            value = 1.0 - tracer.fallbacks_in_fast_path() / calls if calls else 0.0
        out[metric] = (value, unit)
    return out, missing
