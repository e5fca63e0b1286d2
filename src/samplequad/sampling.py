"""Sample-set generation and file I/O.

Generators are backed by numpy's PCG64 bit generator with an explicit
integer seed, so a given (spec, seed, count) reproduces the same stream
on every platform.  Besides the standard box distributions this module
provides acceptance-rejection sampling on indicator regions and a
Metropolis-Hastings chain for the strongly correlated banana-shaped
density exp(-f(x)) * standard_normal_pdf(x), where f is the Rosenbrock
function with parameters a and b.

`PARAMS` holds every kind's parameters: name, default and check.  A spec
resolves them once, when it is built; the generators read `resolved`.

The chain draws all its normal steps and uniforms up front, then runs
on Python floats: each log density is a fixed sequence of IEEE
operations, with the squared norm summed in coordinate order, so no
BLAS kernel (whose dot product may or may not fuse a multiply-add)
decides an acceptance.  The step loop does those operations inline, on
local floats, so that a step calls nothing.  The chain starts at x = 0,
where each of the d - 1 pairs adds b * 0 * 0 + a * a, which is a * a
for every finite a and b, and the squared norm is 0: the start state's
log density is -(a * a + ... + a * a), summed in order.
"""

from __future__ import annotations

import ast
import io
import json
import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np

from .errors import (
    AcceptanceTooLow,
    DimensionInconsistent,
    DimensionMismatch,
    InsufficientSamples,
    InvalidSpec,
    ParseError,
    require_keys,
)
from .rule import SampleSet

UNIFORM = "uniform"
BETA = "beta"
NORMAL = "normal"
ROSENBROCK = "rosenbrock"
INDICATOR = "indicator"
FILE = "file"
KINDS = (UNIFORM, BETA, NORMAL, ROSENBROCK, INDICATOR, FILE)

_MIN_ACCEPT_RATE = 1e-4
_ACCEPT_WINDOW = 1000

MAGIC = b"IQSAMPLE"


_REGION_FUNCS = {"abs": abs, "min": min, "max": max}
_REGION_FUNCS.update({name: getattr(math, name) for name in ("sqrt", "sin", "cos", "exp")})
# operators of a region: arithmetic, comparisons, and/or/not
_REGION_OPS = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.USub, ast.UAdd,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.And, ast.Or, ast.Not,
)


def _region_predicate(expr, d: int):
    """The test of a point against the region `expr`; InvalidSpec outside its grammar.

    A region may use x[i] for a literal coordinate index i < d, numeric
    constants, pi, arithmetic, comparisons, and/or/not, and calls to
    abs, min, max, sqrt, sin, cos and exp.
    """
    if not isinstance(expr, str):
        raise InvalidSpec("indicator region must be a string")
    try:
        tree = ast.parse(expr, "<region>", mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise InvalidSpec(f"indicator region does not parse: {exc}") from exc
    stack = [tree]
    while stack:
        node = stack.pop()
        children = []
        if isinstance(node, ast.Subscript):
            idx = node.slice
            ok = (isinstance(node.value, ast.Name) and node.value.id == "x"
                  and isinstance(idx, ast.Constant) and type(idx.value) is int
                  and 0 <= idx.value < d)
        elif isinstance(node, ast.Call):
            func = node.func
            # min and max take two arguments or more, the rest one
            ok = (isinstance(func, ast.Name) and func.id in _REGION_FUNCS and not node.keywords
                  and (len(node.args) >= 2 if func.id in ("min", "max")
                       else len(node.args) == 1))
            children = node.args
        elif isinstance(node, ast.Name):
            ok = node.id == "pi"
        elif isinstance(node, ast.Constant):
            # evaluated as floats, so that no integer power grows without bound
            ok = type(node.value) in (int, float) and abs(node.value) <= sys.float_info.max
            if ok:
                node.value = float(node.value)
        else:
            ok = isinstance(node, _REGION_OPS)
            children = list(ast.iter_child_nodes(node))
        if not ok:
            what = ast.unparse(node) or type(node).__name__
            raise InvalidSpec(f"indicator region may not contain {what}")
        stack.extend(children)
    code = compile(tree, "<region>", "eval")
    env = {"__builtins__": {}, "pi": math.pi, **_REGION_FUNCS}

    def predicate(x):
        try:
            return bool(eval(code, env, {"x": x}))
        except (ArithmeticError, ValueError) as exc:
            raise InvalidSpec(f"indicator region fails at {x.tolist()}: {exc}") from exc

    return predicate


def _reals(positive: bool, vector: bool):
    """A check: finite numbers, above zero if `positive`; one per coordinate or one in all."""
    low = 0.0 if positive else -math.inf
    def convert(v, d):
        a = np.asarray(v)
        # the dtype before any conversion, which would take "0.5" and True
        if a.dtype.kind not in "iuf" or not (np.isfinite(a) & (a > low)).all():
            raise ValueError
        return np.broadcast_to(a.astype(float), d) if vector else float(a)
    what = "positive finite number" if positive else "finite number"
    return (f"{what}s, one or one per coordinate" if vector else f"a {what}"), convert


def _integer(low: int):
    """A check: an integer (not a bool) >= `low`."""
    def convert(v, d):
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < low:
            raise ValueError
        return int(v)
    return f"an integer >= {low}", convert


def _base(v, d: int):
    base = DistributionSpec.from_json_dict(v) if isinstance(v, dict) else v
    if not isinstance(base, DistributionSpec) or base.d != d:
        raise InvalidSpec(f"indicator base must be a spec of dimension {d}")
    return base


def _path(v, d: int):
    if not isinstance(v, (str, os.PathLike)):
        raise TypeError
    return v


# A check is (what a value must be, its conversion to the value the
# generators read); the conversion raises ValueError or TypeError where
# the value is not that, or InvalidSpec with a message of its own.
_FINITE, _POSITIVE = _reals(False, True), _reals(True, True)
_REQUIRED = object()

# every parameter of each kind: name -> (default or _REQUIRED, check)
PARAMS = {
    UNIFORM: {"lo": (0.0, _FINITE), "hi": (1.0, _FINITE)},
    NORMAL: {"mean": (0.0, _FINITE), "sd": (1.0, _POSITIVE)},
    BETA: {"a": (2.0, _POSITIVE), "b": (2.0, _POSITIVE), "lo": (0.0, _FINITE),
           "hi": (1.0, _FINITE)},
    # the Metropolis-Hastings chain; every value is recorded in provenance
    ROSENBROCK: {"a": (1.0, _reals(False, False)), "b": (10.0, _reals(False, False)),
                 "step": (0.25, _reals(True, False)), "burn_in": (10_000, _integer(0)),
                 "thinning": (10, _integer(1))},
    # a region is compiled to check it, but kept as given: a spec stays picklable
    INDICATOR: {"base": (_REQUIRED, ("a distribution spec", _base)),
                "region": (_REQUIRED, ("a string", lambda v, d: _region_predicate(v, d) and v))},
    FILE: {"path": (_REQUIRED, ("a str or os.PathLike", _path))},
}


@dataclass
class DistributionSpec:
    """Declarative description of a sample source; `params` stays as given."""

    kind: str
    d: int
    seed: int = 0
    params: dict = field(default_factory=dict)
    resolved: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise InvalidSpec(f"{self.kind} params must be a JSON object, got {self.params!r}")
        # a copy: no later change to the caller's dict gets past the checks
        table, p = PARAMS[self.kind], dict(self.params)
        # the banana density needs two coordinates
        given = [("d", self.d, _integer(2 if self.kind == ROSENBROCK else 1)),
                 ("seed", self.seed, _integer(0))]
        given += [(key, p.get(key, default), check) for key, (default, check) in table.items()]
        resolved = {}
        for key, v, (what, convert) in given:
            if v is _REQUIRED:
                raise InvalidSpec(f"{self.kind} params need {key!r}")
            try:
                resolved[key] = convert(v, self.d)
            except (ValueError, TypeError):
                raise InvalidSpec(f"{self.kind} {key} must be {what}, got {v!r}") from None
        unknown = [key for key in p if key not in table]
        if unknown:
            raise InvalidSpec(f"{self.kind} params take no {', '.join(map(repr, unknown))} "
                              f"(known: {', '.join(table)})")
        self.resolved = {key: resolved[key] for key in table}
        # on the values as given, never broadcast to d: a d too large for
        # numpy is refused when the samples are drawn, naming the count
        if "lo" in table:
            lo, hi = (np.asarray(p.get(key, table[key][0]), dtype=float) for key in ("lo", "hi"))
            if np.any(lo >= hi):
                raise InvalidSpec(f"{self.kind} needs lo < hi per coordinate")
        if self.kind == INDICATOR:
            p["base"] = self.resolved["base"]
        self.params = p

    def to_json_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == INDICATOR:
            params["base"] = params["base"].to_json_dict()
        return {"kind": self.kind, "d": self.d, "seed": self.seed, "params": params}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DistributionSpec":
        require_keys(data, ("kind", "d"), "distribution spec")
        return cls(kind=data["kind"], d=data["d"], seed=data.get("seed", 0),
                   params=data.get("params", {}))


# what numpy raises for an array it cannot allocate: MemoryError, or
# ValueError or OverflowError for a shape beyond its size limit
_UNALLOCATABLE = (MemoryError, ValueError, OverflowError)


def _unallocatable(spec: DistributionSpec, count: int, what: str, exc: Exception):
    return InvalidSpec(f"{spec.kind} {what} at d = {spec.d} and count = {count} is more "
                       f"than numpy can allocate: {exc}")


def _mh_rosenbrock(spec: DistributionSpec, count: int):
    p = spec.resolved
    a, b, step, burn_in, thin = p["a"], p["b"], p["step"], p["burn_in"], p["thinning"]
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    total = burn_in + count * thin
    try:
        steps = rng.normal(0.0, step, size=(total, spec.d))
        log_u = np.log(rng.random(total))
    except _UNALLOCATABLE as exc:
        raise _unallocatable(spec, count, f"burn_in + count * thinning of {total} steps",
                             exc) from None
    # the state: the first pair as floats, the rest as a list (at d = 2 the
    # empty one, which `rest and` below passes on without making a list)
    x0 = x1 = 0.0
    rest = [0.0] * (spec.d - 2)
    # at x = 0, summed in order (module docstring); sum() compensates from Python 3.12
    log_p = -reduce(add, repeat(a * a, spec.d - 1))
    out = np.empty((count, spec.d))
    filled = 0
    keep_at = burn_in + thin - 1
    accepted_total = 0
    for start in range(0, total, _ACCEPT_WINDOW):
        # to Python floats one window at a time: lists of the whole array
        # would raise the peak memory of a long chain
        block = steps[start:start + _ACCEPT_WINDOW]
        window = zip(
            range(start, total),
            block[:, 0].tolist(),
            block[:, 1].tolist(),
            block[:, 2:].tolist() if rest else repeat(rest),
            log_u[start:start + _ACCEPT_WINDOW].tolist(),
        )
        accepted = 0
        for t, s0, s1, s_rest, lu in window:
            p0 = x0 + s0
            p1 = x1 + s1
            q = rest and list(map(add, rest, s_rest))
            # the log density's operations in order: the first pair, then the tail
            uu = p0 * p0
            di = p1 - uu
            ai = a - p0
            f = b * di * di + ai * ai
            sq, u = uu, p1
            for v in q:
                uu = u * u
                di = v - uu
                ai = a - u
                f += b * di * di + ai * ai
                sq += uu
                u = v
            log_q = -f - 0.5 * (sq + u * u)
            if lu < log_q - log_p:
                x0, x1, rest = p0, p1, q
                log_p = log_q
                accepted += 1
            if t == keep_at:
                out[filled] = (x0, x1, *rest)
                filled += 1
                keep_at += thin
        accepted_total += accepted
        # only a full window is judged
        if t - start + 1 == _ACCEPT_WINDOW and accepted / _ACCEPT_WINDOW < _MIN_ACCEPT_RATE:
            raise AcceptanceTooLow(
                f"MH acceptance below {_MIN_ACCEPT_RATE} in a window at step {t}"
            )
    provenance = {"kind": ROSENBROCK, "seed": spec.seed, **p,
                  "acceptance_rate": accepted_total / total}
    return SampleSet(out, provenance=provenance)


def _rejection_sample(spec: DistributionSpec, count: int):
    base, region = spec.resolved["base"], spec.resolved["region"]
    predicate = _region_predicate(region, spec.d)
    try:
        out = np.empty((count, spec.d))
    except _UNALLOCATABLE as exc:
        raise _unallocatable(spec, count, "samples", exc) from None
    filled = proposed = accepted = 0
    batch_seed = spec.seed
    while filled < count:
        if base.kind != FILE:
            size = max(4 * (count - filled), 1024)
            block = generate(replace(base, seed=batch_seed), size).points
            batch_seed = batch_seed * 6364136223846793005 + 1442695040888963407
            batch_seed &= (1 << 63) - 1
        elif not proposed:
            # a file is read once: each row is tested once, in file order
            block = _file_samples(base).points
        else:
            raise InsufficientSamples(f"sample file has {accepted} of {proposed} rows in "
                                      f"the region {region!r}, {count} requested")
        for row in block:
            proposed += 1
            if predicate(row):
                accepted += 1
                out[filled] = row
                filled += 1
                if filled == count:
                    break
        rate = accepted / proposed
        if (base.kind != FILE and proposed >= max(_ACCEPT_WINDOW * 100, 10 * count)
                and rate < _MIN_ACCEPT_RATE):
            raise AcceptanceTooLow(f"rejection acceptance {rate:.2e} too low")
    provenance = {"kind": INDICATOR, "seed": spec.seed, "base": base.to_json_dict(),
                  "region": region, "acceptance_rate": rate}
    return SampleSet(out, provenance=provenance)


def _file_samples(spec: DistributionSpec) -> SampleSet:
    """Every row of a `file` spec's file, which must have the spec's dimension."""
    samples = read_samples(spec.resolved["path"])
    if samples.d != spec.d:
        raise DimensionMismatch(f"sample file has dimension {samples.d}, "
                                f"the spec declares {spec.d}")
    return samples


def generate(spec: DistributionSpec, count: int) -> SampleSet:
    """Draw `count` points; deterministic for a fixed spec and seed.

    A `file` spec yields the first `count` rows of its file.
    """
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    p = spec.resolved
    if spec.kind == FILE:
        samples = _file_samples(spec)
        if samples.count < count:
            raise InsufficientSamples(f"sample file has {samples.count} samples, "
                                      f"{count} requested")
        return SampleSet(samples.points[:count], provenance=samples.provenance)
    if spec.kind == ROSENBROCK:
        return _mh_rosenbrock(spec, count)
    if spec.kind == INDICATOR:
        return _rejection_sample(spec, count)
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    shape = (count, spec.d)
    try:
        if spec.kind == NORMAL:
            pts = p["mean"] + p["sd"] * rng.standard_normal(shape)
        else:
            unit = (rng.random(shape) if spec.kind == UNIFORM
                    else rng.beta(p["a"], p["b"], size=shape))
            pts = p["lo"] + (p["hi"] - p["lo"]) * unit
    except _UNALLOCATABLE as exc:
        raise _unallocatable(spec, count, "samples", exc) from None
    provenance = {"kind": spec.kind, "seed": spec.seed, "params": dict(spec.params)}
    return SampleSet(pts, provenance=provenance)


def write_samples(samples: SampleSet, path) -> None:
    """Write raw binary doubles to a `.bin` path, else CSV (shortest round-trip decimals)."""
    if str(path).endswith(".bin"):
        pts = np.ascontiguousarray(samples.points, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", samples.d, samples.count))
            fh.write(pts.tobytes())
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in samples.points:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_samples(path) -> SampleSet:
    """Read a sample file, binary if it starts with `MAGIC`, else CSV; whatever its name."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] == MAGIC:
        if len(blob) < 16:
            raise ParseError(f"sample-file header of {len(blob)} bytes, 16 expected")
        d, count = struct.unpack("<II", blob[8:16])
        expected = 16 + 8 * d * count
        if len(blob) != expected:
            raise ParseError(f"file length {len(blob)} != expected {expected}")
        return SampleSet(np.frombuffer(blob, dtype="<f8", offset=16).reshape(count, d).copy(),
                         provenance={"path": str(path)})
    try:
        # lines end at \n, \r or \r\n, as in a file opened as text
        lines = io.StringIO(blob.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise ParseError(f"neither a binary sample file nor UTF-8 text: {exc}", line=0) from None
    rows = []
    d = None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if d is None:
            d = len(fields)
        elif len(fields) != d:
            raise DimensionInconsistent(
                f"row has {len(fields)} columns, expected {d}", line=lineno
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line=lineno) from exc
    if not rows:
        raise ParseError("empty sample file", line=0)
    return SampleSet(np.asarray(rows), provenance={"path": str(path)})


def write_provenance(samples: SampleSet, path) -> None:
    """Deterministic JSON sidecar describing how a file was produced."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": samples.provenance, "count": samples.count,
                   "d": samples.d}, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
