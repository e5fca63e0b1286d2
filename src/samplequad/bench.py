"""Genz test functions and the sample-based convergence experiment.

For each repetition a fresh parameter draw and sample set are made; a
nested chain of rules with doubling basis size is built on the samples
and compared, per integrand family, against the plain prefix-average
Monte Carlo estimate.  The error reference is the average over the full
sample set, so both methods converge to the same value and the reported
error isolates the quadrature error from the sampling error.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .basis import BasisSpec, domain_from_samples
from .errors import UNALLOCATABLE, InvalidSpec, SampleQuadError, require_int, require_keys
from .nested import ExtensionRequest, extend_rule
from .rule import SampleSet, construct_fixed_rule
from .sampling import DistributionSpec, ROSENBROCK, generate

log = logging.getLogger(__name__)

OSCILLATORY = "oscillatory"
PRODUCT_PEAK = "product_peak"
CORNER_PEAK = "corner_peak"
GAUSSIAN = "gaussian"
C0 = "c0"
DISCONTINUOUS = "discontinuous"
FAMILIES = (OSCILLATORY, PRODUCT_PEAK, CORNER_PEAK, GAUSSIAN, C0, DISCONTINUOUS)

NESTED_RULE = "nested_rule"
REGENERATED_RULE = "regenerated_rule"
MONTE_CARLO = "monte_carlo"

A_NORM = 2.5


@dataclass(frozen=True)
class GenzFunction:
    """One parametrized integrand; `a` scales difficulty, `b` shifts."""

    family: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown Genz family {self.family!r}")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != self.b.shape:
            raise InvalidSpec("a and b must have equal length")


def genz_eval_many(f: GenzFunction, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an (n, d) point array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    a, b = f.a, f.b
    if f.family == OSCILLATORY:
        return np.cos(2.0 * np.pi * b[0] + pts @ a)
    if f.family == PRODUCT_PEAK:
        return np.prod(1.0 / (a ** -2 + (pts - b) ** 2), axis=1)
    if f.family == CORNER_PEAK:
        return (1.0 + pts @ a) ** (-(pts.shape[1] + 1.0))
    if f.family == GAUSSIAN:
        return np.exp(-np.sum(a ** 2 * (pts - b) ** 2, axis=1))
    if f.family == C0:
        return np.exp(-np.sum(a * np.abs(pts - b), axis=1))
    # discontinuous: zero beyond the offset in the first two coordinates
    cut = pts[:, 0] > b[0]
    if pts.shape[1] >= 2:
        cut = cut | (pts[:, 1] > b[1])
    vals = np.exp(pts @ a)
    vals[cut] = 0.0
    return vals


def draw_genz_params(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random difficulty/offset vectors; `a` rescaled to 2-norm 5/2."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    a = rng.random(d)
    a *= A_NORM / np.linalg.norm(a)
    b = rng.random(d)
    return a, b


@dataclass
class ExperimentConfig:
    d: int
    k_max: int
    schedule: tuple[int, ...]
    distribution: DistributionSpec
    repetitions: int = 20
    seed: int = 0
    include_nonnested: bool = False
    families: tuple[str, ...] = FAMILIES
    removal_cap: int = 128

    def __post_init__(self):
        for name in ("d", "k_max", "repetitions", "seed", "removal_cap"):
            setattr(self, name, require_int(getattr(self, name), name))
        if not isinstance(self.include_nonnested, bool):
            raise InvalidSpec(f"include_nonnested must be a bool, not {self.include_nonnested!r}")
        for name in ("schedule", "families"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise InvalidSpec(f"{name} must be a list, not {getattr(self, name)!r}")
        self.schedule = tuple(require_int(n, "schedule") for n in self.schedule)
        self.families = tuple(self.families)
        if self.d != self.distribution.d:
            raise InvalidSpec(f"d={self.d} but the distribution has d={self.distribution.d}")
        if self.repetitions < 1:
            raise InvalidSpec("need at least one repetition")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be at least 0, not {self.seed}")
        if self.removal_cap < 1:
            raise InvalidSpec(f"removal_cap must be at least 1, not {self.removal_cap}")
        if not self.schedule or min(self.schedule) < 1:
            raise InvalidSpec(f"schedule must list rule sizes >= 1, got {list(self.schedule)}")
        if any(a >= b for a, b in zip(self.schedule, self.schedule[1:])):
            raise InvalidSpec(f"schedule must be strictly ascending, got {list(self.schedule)}")
        if self.k_max < max(self.schedule) + 1:
            raise InvalidSpec("k_max must exceed the largest rule size")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise InvalidSpec(f"unknown families {bad}")
        if not self.active_families():
            raise InvalidSpec(f"families {list(self.families)} leave none to measure "
                              f"under a {self.distribution.kind} distribution")

    def active_families(self) -> tuple[str, ...]:
        # the corner peak integral diverges under the banana density
        if self.distribution.kind == ROSENBROCK:
            return tuple(f for f in self.families if f != CORNER_PEAK)
        return self.families

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        out["distribution"] = self.distribution.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        require_keys(data, ("d", "k_max", "schedule", "distribution"), "experiment config")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidSpec(f"experiment config JSON has unknown keys {sorted(unknown)}")
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        kwargs["distribution"] = DistributionSpec.from_json_dict(data["distribution"])
        return cls(**kwargs)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    errors: dict = field(default_factory=dict)  # (family, N, method) -> mean error
    slopes: dict = field(default_factory=dict)  # (family, method) -> fitted slope
    evaluations: dict = field(default_factory=dict)  # method -> integrand evals
    completed_repetitions: dict = field(default_factory=dict)  # family -> count
    failures: list = field(default_factory=list)

    def rows(self):
        for (family, n, method), err in sorted(self.errors.items()):
            yield family, n, method, err

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["family", "N", "method", "mean_abs_error"])
            for family, n, method, err in self.rows():
                writer.writerow([family, n, method, repr(err)])

    def to_json(self, path) -> None:
        payload = {
            "config": self.config.to_json_dict(),
            "errors": [
                {"family": f, "N": n, "method": m, "mean_abs_error": e}
                for f, n, m, e in self.rows()
            ],
            "slopes": [
                {"family": f, "method": m, "slope": s}
                for (f, m), s in sorted(self.slopes.items())
            ],
            "evaluations": self.evaluations,
            "completed_repetitions": self.completed_repetitions,
            "failures": self.failures,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def fit_slope(ns, errors) -> float:
    """Least-squares log2-log2 slope over the upper half of the schedule."""
    ns = np.asarray(ns, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    start = len(ns) // 2 if len(ns) >= 4 else 0
    x = np.log2(ns[start:])
    y = np.log2(errors[start:])
    if x.shape[0] < 2:
        return float("nan")
    return float(np.polyfit(x, y, 1)[0])


def _rep_seeds(config: ExperimentConfig) -> list[list[int]]:
    """(sample, parameter, selection) seeds of every repetition."""
    root = np.random.SeedSequence(config.seed)
    try:
        state = root.generate_state(3 * config.repetitions, dtype=np.uint64)
    except UNALLOCATABLE as exc:
        raise InvalidSpec(f"repetitions = {config.repetitions} need more seeds than numpy "
                          f"can allocate: {exc}") from None
    return (state >> 1).reshape(-1, 3).tolist()


def _build_chain(config: ExperimentConfig, samples: SampleSet, spec: BasisSpec,
                 select_seed: int):
    chain = [construct_fixed_rule(samples, spec)]
    for n in config.schedule[1:]:
        req = ExtensionRequest(
            base=chain[-1],
            target_basis_size=n + 1,
            sample_source=samples,
            mode="increase_degree",
            removal_cap=config.removal_cap,
        )
        chain.append(extend_rule(req, selection_seed=select_seed))
    return chain


def run_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Average per-family integration errors over seeded repetitions.

    A failed rule construction aborts only that repetition (with a
    logged diagnostic); Monte Carlo rows are always produced.
    """
    report = ExperimentReport(config=config)
    families = config.active_families()
    totals: dict = {}  # (family, N, method) -> (error sum, count)
    report.evaluations = {NESTED_RULE: 0, REGENERATED_RULE: 0, MONTE_CARLO: 0}
    completed = 0

    # both read the current repetition's rep, samples, funcs and prefixes
    def record(method, n, rule=None):
        """Add each family's error at size n: the prefix mean, or `rule`'s."""
        for f, prefix in zip(funcs, prefixes):
            if rule is None:
                estimate = prefix[min(n, samples.count - 1)]
            else:
                estimate = rule.apply(genz_eval_many(f, rule.nodes))
            key = (f.family, n, method)
            total, count = totals.get(key, (0.0, 0))
            # sequential +, never sum(): from Python 3.12 it is compensated
            totals[key] = (total + abs(estimate - prefix[-1]), count + 1)

    def fail(msg):
        msg = f"repetition {rep}: {msg}"
        log.warning(msg)
        report.failures.append(msg)

    for rep, (sample_seed, param_seed, select_seed) in enumerate(_rep_seeds(config)):
        samples = generate(replace(config.distribution, seed=sample_seed), config.k_max)
        a, b = draw_genz_params(config.d, param_seed)
        funcs = [GenzFunction(f, a, b) for f in families]
        # the mean over the full sample set is the error reference
        ramp = np.arange(1, samples.count + 1)
        prefixes = [np.cumsum(genz_eval_many(f, samples.points)) / ramp for f in funcs]
        for n in config.schedule:
            record(MONTE_CARLO, n)
        report.evaluations[MONTE_CARLO] += max(config.schedule) + 1

        spec = BasisSpec(d=config.d, size=config.schedule[0] + 1,
                         domain=domain_from_samples(samples.points))
        try:
            chain = _build_chain(config, samples, spec, select_seed)
        except SampleQuadError as exc:
            fail(f"nested chain failed: {exc}")
        else:
            for n, rule in zip(config.schedule, chain):
                record(NESTED_RULE, n, rule)
            seen = {row.tobytes() for rule in chain for row in rule.nodes}
            report.evaluations[NESTED_RULE] += len(seen)
            completed += 1

        if config.include_nonnested:
            for n in config.schedule:
                try:
                    rule = construct_fixed_rule(samples, replace(spec, size=n + 1))
                except SampleQuadError as exc:
                    fail(f"regenerated rule N={n} failed: {exc}")
                    continue
                report.evaluations[REGENERATED_RULE] += rule.n_nodes
                record(REGENERATED_RULE, n, rule)

    # Python floats: a numpy 2 scalar's repr is no number a CSV reader takes
    report.errors = {key: float(total / count) for key, (total, count) in totals.items()}
    report.completed_repetitions = dict.fromkeys(families, completed)

    methods = {m for (_, _, m) in report.errors}
    for f in families:
        for m in methods:
            ns = [n for n in config.schedule if (f, n, m) in report.errors]
            if len(ns) >= 2:
                errs = [report.errors[(f, n, m)] for n in ns]
                report.slopes[(f, m)] = fit_slope(ns, errs)
    return report
