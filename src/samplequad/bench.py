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
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, domain_from_samples
from .errors import SampleQuadError
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
            raise ValueError(f"unknown Genz family {self.family!r}")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must have equal length")


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
    basis_family: str = "product_legendre"
    removal_cap: int = 128

    def __post_init__(self):
        self.schedule = tuple(int(n) for n in self.schedule)
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if list(self.schedule) != sorted(self.schedule):
            raise ValueError("schedule must be ascending")
        if self.k_max < max(self.schedule) + 1:
            raise ValueError("k_max must exceed the largest rule size")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise ValueError(f"unknown families {bad}")

    def active_families(self) -> tuple[str, ...]:
        # the corner peak integral diverges under the banana density
        if self.distribution.kind == ROSENBROCK:
            return tuple(f for f in self.families if f != CORNER_PEAK)
        return self.families

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "k_max": self.k_max,
            "schedule": list(self.schedule),
            "distribution": self.distribution.to_json_dict(),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "include_nonnested": self.include_nonnested,
            "families": list(self.families),
            "basis_family": self.basis_family,
            "removal_cap": self.removal_cap,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(
            d=int(data["d"]),
            k_max=int(data["k_max"]),
            schedule=tuple(data["schedule"]),
            distribution=DistributionSpec.from_json_dict(data["distribution"]),
            repetitions=int(data.get("repetitions", 20)),
            seed=int(data.get("seed", 0)),
            include_nonnested=bool(data.get("include_nonnested", False)),
            families=tuple(data.get("families", FAMILIES)),
            basis_family=data.get("basis_family", "product_legendre"),
            removal_cap=int(data.get("removal_cap", 128)),
        )


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


def _rep_seeds(config: ExperimentConfig):
    root = np.random.SeedSequence(config.seed)
    state = root.generate_state(3 * config.repetitions, dtype=np.uint64)
    for r in range(config.repetitions):
        yield (
            int(state[3 * r] >> 1),
            int(state[3 * r + 1] >> 1),
            int(state[3 * r + 2] >> 1),
        )


def _build_chain(config: ExperimentConfig, samples: SampleSet, select_seed: int):
    dom = domain_from_samples(samples.points)
    chain = []
    spec0 = BasisSpec(
        d=config.d, size=config.schedule[0] + 1,
        family=config.basis_family, domain=dom,
    )
    chain.append(construct_fixed_rule(samples, spec0))
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
    sums: dict = {}
    counts: dict = {}
    eval_counts = {NESTED_RULE: 0, REGENERATED_RULE: 0, MONTE_CARLO: 0}
    rep_done = {f: 0 for f in families}

    for rep, (sample_seed, param_seed, select_seed) in enumerate(_rep_seeds(config)):
        dist = DistributionSpec(
            kind=config.distribution.kind,
            d=config.distribution.d,
            seed=sample_seed,
            params=config.distribution.params,
        )
        samples = generate(dist, config.k_max)
        a, b = draw_genz_params(config.d, param_seed)
        funcs = {f: GenzFunction(f, a, b) for f in families}
        values = {f: genz_eval_many(funcs[f], samples.points) for f in families}
        prefix = {
            f: np.cumsum(values[f]) / np.arange(1, samples.count + 1)
            for f in families
        }
        reference = {f: prefix[f][-1] for f in families}

        for f in families:
            for n in config.schedule:
                key = (f, n, MONTE_CARLO)
                err = abs(prefix[f][min(n, samples.count - 1)] - reference[f])
                sums[key] = sums.get(key, 0.0) + err
                counts[key] = counts.get(key, 0) + 1
        eval_counts[MONTE_CARLO] += max(config.schedule) + 1

        try:
            chain = _build_chain(config, samples, select_seed)
        except SampleQuadError as exc:
            msg = f"repetition {rep}: nested chain failed: {exc}"
            log.warning(msg)
            report.failures.append(msg)
            chain = None
        if chain is not None:
            seen_nodes = set()
            for n, rule in zip(config.schedule, chain):
                node_vals = {f: genz_eval_many(funcs[f], rule.nodes) for f in families}
                for row in rule.nodes:
                    seen_nodes.add(row.tobytes())
                for f in families:
                    key = (f, n, NESTED_RULE)
                    err = abs(rule.apply(node_vals[f]) - reference[f])
                    sums[key] = sums.get(key, 0.0) + err
                    counts[key] = counts.get(key, 0) + 1
            eval_counts[NESTED_RULE] += len(seen_nodes)
            for f in families:
                rep_done[f] += 1

        if config.include_nonnested:
            dom = domain_from_samples(samples.points)
            for n in config.schedule:
                spec = BasisSpec(
                    d=config.d, size=n + 1,
                    family=config.basis_family, domain=dom,
                )
                try:
                    rule = construct_fixed_rule(samples, spec)
                except SampleQuadError as exc:
                    msg = f"repetition {rep}: regenerated rule N={n} failed: {exc}"
                    log.warning(msg)
                    report.failures.append(msg)
                    continue
                eval_counts[REGENERATED_RULE] += rule.n_nodes
                for f in families:
                    key = (f, n, REGENERATED_RULE)
                    err = abs(rule.apply(genz_eval_many(funcs[f], rule.nodes)) - reference[f])
                    sums[key] = sums.get(key, 0.0) + err
                    counts[key] = counts.get(key, 0) + 1

    for key, total in sums.items():
        report.errors[key] = total / counts[key]
    report.evaluations = eval_counts
    report.completed_repetitions = rep_done

    methods = {m for (_, _, m) in report.errors}
    for f in families:
        for m in methods:
            ns = [n for n in config.schedule if (f, n, m) in report.errors]
            if len(ns) >= 2:
                errs = [report.errors[(f, n, m)] for n in ns]
                report.slopes[(f, m)] = fit_slope(ns, errs)
    return report
