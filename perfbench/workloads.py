"""The benchmark's workloads: inputs, one operation, and its checks.

Every workload is d=2 with the product-Legendre basis and the domain
taken from the samples.  Operation i of a run with seed s works on its
own input, drawn from the seed sequence (s, i), so a run measures
several inputs and the same seed always gives the same inputs.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in perfbench/README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import samplequad.bench
import samplequad.rule
from samplequad.basis import BasisSpec, domain_from_samples
from samplequad.bench import ExperimentConfig
from samplequad.sampling import DistributionSpec, generate

from checks import check_chain, digest


def sub_seed(seed: int, i: int) -> int:
    """Seed of operation i in a run with the given seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint32)[0])


@dataclass
class Result:
    """What one operation produced, for timing, checks and digests."""

    rules: list  # (samples, base rule or None, rule), in the order built
    expected: int  # how many rules the operation should have built
    problems: list
    build_seconds: float
    streamed: int

    def check(self) -> list[str]:
        return self.problems + check_chain(self.rules, self.expected)

    def digest(self) -> str:
        return digest(rule for _, _, rule in self.rules)


@dataclass(frozen=True)
class FixedRuleStream:
    """`construct_fixed_rule` over a stream of uniform samples."""

    samples: int
    basis_size: int

    def make_input(self, seed: int):
        samples = generate(DistributionSpec("uniform", 2, seed=seed), self.samples)
        spec = BasisSpec(d=2, size=self.basis_size, domain=domain_from_samples(samples.points))
        return samples, spec

    def run(self, inp, capture) -> Result:
        samples, spec = inp
        t0 = time.perf_counter()
        rule = samplequad.rule.construct_fixed_rule(samples, spec)
        build = time.perf_counter() - t0
        return Result([(samples, None, rule)], 1, [], build, samples.count)

    def tiny(self) -> "FixedRuleStream":
        """The same operation at a warm-up size."""
        return FixedRuleStream(samples=2 * self.basis_size + 200, basis_size=self.basis_size)


class ChainCapture:
    """Records the rules `samplequad.bench` builds, with their build time.

    It replaces the two names the experiment calls,
    `samplequad.bench.construct_fixed_rule` and `extend_rule`, with
    shims that pass every call through unchanged.
    """

    NAMES = ("construct_fixed_rule", "extend_rule")

    def __init__(self):
        self.calls = []  # (samples, base rule or None, rule)
        self.seconds = 0.0
        self.streamed = 0
        self._saved = {}
        for name in self.NAMES:
            fn = getattr(samplequad.bench, name, None)
            if fn is not None:
                self._saved[name] = fn
                setattr(samplequad.bench, name, self._shim(fn, name == "extend_rule"))

    def close(self) -> None:
        """Put the original names back."""
        for name, fn in self._saved.items():
            setattr(samplequad.bench, name, fn)
        self._saved.clear()

    def _shim(self, fn, extends: bool):
        def shim(*args, **kwargs):
            t0 = time.perf_counter()
            rule = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            if extends:
                req = args[0] if args else kwargs["req"]
                samples, base = req.sample_source, req.base
            else:
                samples, base = (args[0] if args else kwargs["samples"]), None
            self.streamed += samples.count
            self.calls.append((samples, base, rule))
            return rule

        return shim

    def take(self):
        calls, seconds, streamed = self.calls, self.seconds, self.streamed
        self.calls, self.seconds, self.streamed = [], 0.0, 0
        return calls, seconds, streamed


@dataclass(frozen=True)
class GenzRepetition:
    """One `run_convergence` repetition, all six Genz families.

    The nested `increase_degree` chain has one rule per schedule entry,
    built with the default `removal_cap`.
    """

    kind: str
    k_max: int
    schedule: tuple[int, ...]

    def make_input(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            d=2, k_max=self.k_max, schedule=self.schedule,
            distribution=DistributionSpec(self.kind, 2),
            repetitions=1, seed=seed,
        )

    def run(self, config, capture: ChainCapture) -> Result:
        capture.take()
        report = samplequad.bench.run_convergence(config)
        calls, seconds, streamed = capture.take()
        problems = [f"report failure: {msg}" for msg in report.failures]
        return Result(calls, len(config.schedule), problems, seconds, streamed)

    def tiny(self) -> "GenzRepetition":
        """The same operation at a warm-up size."""
        return GenzRepetition(self.kind, k_max=256, schedule=(4, 8, 16))


def _doubling(lo: int, hi: int) -> tuple[int, ...]:
    out = [lo]
    while out[-1] * 2 <= hi:
        out.append(out[-1] * 2)
    return tuple(out)


WORKLOADS = {
    "stream-d2": FixedRuleStream(samples=20_000, basis_size=21),
    "genz-uniform": GenzRepetition("uniform", k_max=512, schedule=_doubling(4, 64)),
    "genz-banana": GenzRepetition("rosenbrock", k_max=256, schedule=_doubling(4, 64)),
}

# the same workloads at a size that runs in about a second, for self-tests
SMALL = {
    "stream-d2": FixedRuleStream(samples=3_000, basis_size=21),
    "genz-uniform": GenzRepetition("uniform", k_max=512, schedule=_doubling(4, 32)),
    "genz-banana": GenzRepetition("rosenbrock", k_max=512, schedule=_doubling(4, 32)),
}
