"""Sample-set generation and file I/O.

Generators are backed by numpy's PCG64 bit generator with an explicit
integer seed, so a given (spec, seed, count) reproduces the same stream
on every platform.  Besides the standard box distributions this module
provides acceptance-rejection sampling on indicator regions and a
Metropolis-Hastings chain for the strongly correlated banana-shaped
density exp(-f(x)) * standard_normal_pdf(x), where f is the Rosenbrock
function (by default a = 1, b = 10).

The chain draws all its normal steps and uniforms up front, then runs
on Python floats: each log density is a fixed sequence of IEEE
operations, with the squared norm summed in coordinate order, so no
BLAS kernel (whose dot product may or may not fuse a multiply-add)
decides an acceptance.
"""

from __future__ import annotations

import ast
import json
import math
import numbers
import struct
import sys
from dataclasses import dataclass, field
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
# the params each kind reads
PARAMS = {
    UNIFORM: ("lo", "hi"),
    NORMAL: ("mean", "sd"),
    BETA: ("a", "b", "lo", "hi"),
    ROSENBROCK: ("a", "b", "step", "burn_in", "thinning"),
    INDICATOR: ("base", "region"),
    FILE: ("path", "format"),
}

# Metropolis-Hastings defaults, recorded in provenance
MH_STEP = 0.25
MH_BURN_IN = 10_000
MH_THINNING = 10

_MIN_ACCEPT_RATE = 1e-4
_ACCEPT_WINDOW = 1000

MAGIC = b"IQSAMPLE"


def _check_mh_params(p: dict) -> None:
    """InvalidSpec naming the first Metropolis-Hastings parameter out of range."""
    for name in ("a", "b", "step"):
        v = p.get(name, 0.0)
        try:
            ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise InvalidSpec(f"rosenbrock {name} must be a finite number, got {v!r}")
    if p.get("step", MH_STEP) <= 0:
        raise InvalidSpec(f"rosenbrock step must be > 0, got {p['step']!r}")
    for name, low in (("burn_in", 0), ("thinning", 1)):
        v = p.get(name, low)
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < low:
            raise InvalidSpec(f"rosenbrock {name} must be an integer >= {low}, got {v!r}")


@dataclass
class DistributionSpec:
    """Declarative description of a sample source."""

    kind: str
    d: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        if self.d < 1:
            raise InvalidSpec("dimension must be >= 1")
        p = self.params
        if self.kind == BETA:
            a = np.broadcast_to(np.asarray(p.get("a", 2.0), float), self.d)
            b = np.broadcast_to(np.asarray(p.get("b", 2.0), float), self.d)
            if np.any(a <= 0) or np.any(b <= 0):
                raise InvalidSpec("beta shape parameters must be positive")
        if self.kind == NORMAL and np.any(
            np.broadcast_to(np.asarray(p.get("sd", 1.0), float), self.d) <= 0
        ):
            raise InvalidSpec("normal sd must be positive")
        if self.kind == ROSENBROCK:
            if self.d < 2:
                raise InvalidSpec("the banana density needs d >= 2")
            _check_mh_params(p)
        if self.kind == INDICATOR:
            if "base" not in p or "region" not in p:
                raise InvalidSpec("indicator needs a base spec and a region")
            base = p["base"]
            if isinstance(base, dict):
                # a new dict: the caller's params stay as given
                base = DistributionSpec.from_json_dict(base)
                self.params = {**p, "base": base}
            if not isinstance(base, DistributionSpec) or base.d != self.d:
                raise InvalidSpec(f"indicator base must be a spec of dimension {self.d}")
            _parse_region(p["region"], self.d)
        if self.kind == FILE and "path" not in p:
            raise InvalidSpec("file kind needs a path")
        unknown = [key for key in p if key not in PARAMS[self.kind]]
        if unknown:
            raise InvalidSpec(
                f"{self.kind} params take no {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(PARAMS[self.kind])})"
            )

    def box(self, lo_default=0.0, hi_default=1.0):
        lo = np.broadcast_to(np.asarray(self.params.get("lo", lo_default), float), self.d)
        hi = np.broadcast_to(np.asarray(self.params.get("hi", hi_default), float), self.d)
        if np.any(lo >= hi):
            raise InvalidSpec("need lo < hi per coordinate")
        return lo, hi

    def to_json_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == INDICATOR:
            params["base"] = params["base"].to_json_dict()
        return {"kind": self.kind, "d": self.d, "seed": self.seed, "params": params}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DistributionSpec":
        require_keys(data, ("kind", "d"), "distribution spec")
        return cls(
            kind=data["kind"],
            d=int(data["d"]),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
        )


def _log_density(x, a: float, b: float) -> float:
    """Log of the unnormalized target exp(-f(x)) * N(0, I) density.

    `x` is a list of Python floats; the Rosenbrock terms and the squared
    norm x0^2 + x1^2 + ... are running sums in coordinate order.
    """
    f = 0.0
    sq = 0.0
    u = x[0]
    for v in x[1:]:
        uu = u * u
        di = v - uu
        ai = a - u
        f += b * di * di + ai * ai
        sq += uu
        u = v
    return -f - 0.5 * (sq + u * u)


def _mh_rosenbrock(spec: DistributionSpec, count: int):
    p = spec.params
    a = float(p.get("a", 1.0))
    b = float(p.get("b", 10.0))
    step = float(p.get("step", MH_STEP))
    burn_in = int(p.get("burn_in", MH_BURN_IN))
    thin = int(p.get("thinning", MH_THINNING))
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    total = burn_in + count * thin
    steps = rng.normal(0.0, step, size=(total, spec.d))
    log_u = np.log(rng.random(total))
    x = [0.0] * spec.d
    log_p = _log_density(x, a, b)
    out = np.empty((count, spec.d))
    filled = 0
    keep_at = burn_in + thin - 1
    accepted_total = 0
    for start in range(0, total, _ACCEPT_WINDOW):
        # to Python floats one window at a time: lists of the whole array
        # would raise the peak memory of a long chain
        window = zip(
            range(start, total),
            steps[start:start + _ACCEPT_WINDOW].tolist(),
            log_u[start:start + _ACCEPT_WINDOW].tolist(),
        )
        accepted = 0
        for t, s, lu in window:
            prop = list(map(add, x, s))
            log_q = _log_density(prop, a, b)
            if lu < log_q - log_p:
                x = prop
                log_p = log_q
                accepted += 1
            if t == keep_at:
                out[filled] = x
                filled += 1
                keep_at += thin
        accepted_total += accepted
        # only a full window is judged
        if t - start + 1 == _ACCEPT_WINDOW and accepted / _ACCEPT_WINDOW < _MIN_ACCEPT_RATE:
            raise AcceptanceTooLow(
                f"MH acceptance below {_MIN_ACCEPT_RATE} in a window at step {t}"
            )
    provenance = {
        "kind": ROSENBROCK,
        "seed": spec.seed,
        "a": a,
        "b": b,
        "step": step,
        "burn_in": burn_in,
        "thinning": thin,
        "acceptance_rate": accepted_total / total,
    }
    return SampleSet(out, provenance=provenance)


_REGION_FUNCS = {"abs": abs, "min": min, "max": max}
_REGION_FUNCS.update({name: getattr(math, name) for name in ("sqrt", "sin", "cos", "exp")})
# operators of a region: arithmetic, comparisons, and/or/not
_REGION_OPS = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.USub, ast.UAdd,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.And, ast.Or, ast.Not,
)


def _parse_region(expr, d: int):
    """The compiled region expression; InvalidSpec outside its grammar.

    A region may use x[i] for a literal coordinate index i < d, numeric
    constants, pi, arithmetic, comparisons, and/or/not, and calls to
    abs, min, max, sqrt, sin, cos and exp.
    """
    if not isinstance(expr, str):
        raise InvalidSpec("region must be a string")
    try:
        tree = ast.parse(expr, "<region>", mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise InvalidSpec(f"region does not parse: {exc}") from exc
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
            ok = isinstance(func, ast.Name) and func.id in _REGION_FUNCS and not node.keywords
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
            raise InvalidSpec(f"region may not contain {ast.unparse(node) or type(node).__name__}")
        stack.extend(children)
    return compile(tree, "<region>", "eval")


def _indicator_predicate(spec: DistributionSpec):
    code = _parse_region(spec.params["region"], spec.d)
    env = {"__builtins__": {}, "pi": math.pi, **_REGION_FUNCS}

    def predicate(x):
        try:
            return bool(eval(code, env, {"x": x}))
        except (ArithmeticError, ValueError) as exc:
            raise InvalidSpec(f"region fails at {x.tolist()}: {exc}") from exc

    return predicate


def _rejection_sample(spec: DistributionSpec, count: int):
    base = spec.params["base"]
    predicate = _indicator_predicate(spec)
    out = np.empty((count, spec.d))
    filled = 0
    proposed = 0
    accepted = 0
    batch_seed = spec.seed
    while filled < count:
        batch_spec = DistributionSpec(
            kind=base.kind, d=base.d, seed=batch_seed, params=base.params
        )
        block = generate(batch_spec, max(4 * (count - filled), 1024)).points
        batch_seed = batch_seed * 6364136223846793005 + 1442695040888963407
        batch_seed &= (1 << 63) - 1
        for row in block:
            proposed += 1
            if predicate(row):
                accepted += 1
                out[filled] = row
                filled += 1
                if filled == count:
                    break
        if proposed >= max(_ACCEPT_WINDOW * 100, 10 * count):
            if accepted / proposed < _MIN_ACCEPT_RATE:
                raise AcceptanceTooLow(
                    f"rejection acceptance {accepted / proposed:.2e} too low"
                )
    provenance = {
        "kind": INDICATOR,
        "seed": spec.seed,
        "base": base.to_json_dict(),
        "acceptance_rate": accepted / max(proposed, 1),
    }
    return SampleSet(out, provenance=provenance)


def generate(spec: DistributionSpec, count: int) -> SampleSet:
    """Draw `count` points; deterministic for a fixed spec and seed.

    A `file` spec yields the first `count` rows of its file.
    """
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    if spec.kind == FILE:
        samples = read_samples(spec.params["path"], spec.params.get("format"))
        if samples.d != spec.d:
            raise DimensionMismatch(
                f"sample file has dimension {samples.d}, the spec declares {spec.d}"
            )
        if samples.count < count:
            raise InsufficientSamples(
                f"sample file has {samples.count} samples, {count} requested"
            )
        return SampleSet(samples.points[:count], provenance=samples.provenance)
    if spec.kind == ROSENBROCK:
        return _mh_rosenbrock(spec, count)
    if spec.kind == INDICATOR:
        return _rejection_sample(spec, count)
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    if spec.kind == UNIFORM:
        lo, hi = spec.box()
        pts = lo + (hi - lo) * rng.random((count, spec.d))
    elif spec.kind == NORMAL:
        mean = np.broadcast_to(np.asarray(spec.params.get("mean", 0.0), float), spec.d)
        sd = np.broadcast_to(np.asarray(spec.params.get("sd", 1.0), float), spec.d)
        pts = mean + sd * rng.standard_normal((count, spec.d))
    elif spec.kind == BETA:
        a = np.broadcast_to(np.asarray(spec.params.get("a", 2.0), float), spec.d)
        b = np.broadcast_to(np.asarray(spec.params.get("b", 2.0), float), spec.d)
        lo, hi = spec.box()
        pts = lo + (hi - lo) * rng.beta(a, b, size=(count, spec.d))
    else:  # pragma: no cover - guarded by __post_init__
        raise InvalidSpec(spec.kind)
    provenance = {"kind": spec.kind, "seed": spec.seed, "params": dict(spec.params)}
    return SampleSet(pts, provenance=provenance)


def write_samples(samples: SampleSet, path, fmt: str | None = None) -> None:
    """Write CSV (shortest round-trip decimals) or raw binary doubles."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary_f64")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in samples.points:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
        return
    if fmt != "binary_f64":
        raise InvalidSpec(f"unknown sample format {fmt!r}")
    pts = np.ascontiguousarray(samples.points, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", samples.d, samples.count))
        fh.write(pts.tobytes())


def read_samples(path, fmt: str | None = None) -> SampleSet:
    """Read a sample file; the inverse of `write_samples`."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary_f64")
    if fmt == "csv":
        rows = []
        d = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
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
    if fmt != "binary_f64":
        raise InvalidSpec(f"unknown sample format {fmt!r}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:8] != MAGIC:
        raise ParseError("missing sample-file magic header")
    d, count = struct.unpack("<II", blob[8:16])
    expected = 16 + 8 * d * count
    if len(blob) != expected:
        raise ParseError(f"file length {len(blob)} != expected {expected}")
    pts = np.frombuffer(blob, dtype="<f8", offset=16).reshape(count, d).copy()
    return SampleSet(pts, provenance={"path": str(path)})


def write_provenance(samples: SampleSet, path) -> None:
    """Deterministic JSON sidecar describing how a file was produced."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": samples.provenance, "count": samples.count,
                   "d": samples.d}, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
