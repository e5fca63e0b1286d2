"""One workload in one fresh process: set up, measure, check, report.

Started by run.py, never imported by it.  The BLAS/OpenMP thread counts
are pinned to 1 before numpy is imported.  The process prints `ready`
once set-up (import, input generation and warm-up) is done, then one
JSON line with its measurements when the run is over.

With --trace 1 every input runs twice: first plain, for the tracing
overhead, then under the layer shims of spans.py.  Both runs must give
bit-identical rules.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from spans import ROOT, Tracer, layer_metrics  # noqa: E402
from workloads import SMALL, WORKLOADS, ChainCapture, sub_seed  # noqa: E402

OUT = HERE / "out"

# Time of the reference kernel on an otherwise idle core of the machine
# the baseline in README.md was recorded on.  Operation times are scaled
# by REFERENCE_S / (reference time measured around the operation).
REFERENCE_S = 0.010


class Reference:
    """A fixed numpy and Python kernel that measures the machine's pace.

    A shared machine can change speed by a factor of two over tens of
    seconds, which no number of operations averages out.  Timing this
    kernel just before and just after every operation and scaling the
    operation's time by it removes most of that drift.  The kernel uses
    none of samplequad, so a faster program still reads faster.  Its mix
    follows the program's: small numpy calls from a Python loop (the
    per-sample step), stacked small inverses and broadcast ratio scans
    over a few hundred kilobytes (the removal enumeration), and dense
    SVDs (the fallback).  Slow phases do not slow all three alike.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.random((21, 21))
        self.b = rng.random(21)
        self.one = np.ones(1)
        self.c = rng.random((65, 4)) - 0.5
        self.w = rng.random(65)
        self.q = rng.integers(0, 65, size=(64, 4))
        self.m = rng.random((66, 67))

    def scale(self, repeats: int) -> float:
        """REFERENCE_S over the kernel's median time of `repeats` runs now."""
        return REFERENCE_S / statistics.median(self.seconds() for _ in range(repeats))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(750):
            z = self.a @ self.b
            acc += float(np.concatenate((z, self.one)).max())
        for _ in range(10):
            inv = np.linalg.inv(self.c[self.q] + np.eye(4))
            alphas = np.einsum("kij,kj->ki", inv, self.w[self.q])
            wq = self.w[:, None] - self.c @ alphas.T
            dirs = np.einsum("nm,kmi->kni", self.c, inv)
            ratios = np.full(dirs.shape, np.inf)
            np.divide(np.broadcast_to(wq.T[:, :, None], dirs.shape), dirs,
                      out=ratios, where=dirs > 0.0)
            acc += float(np.argmin(ratios, axis=1).sum())
        for _ in range(2):
            acc += float(np.linalg.svd(self.m, compute_uv=False)[0])
        return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Run:
    """The operations of one run and what they produced."""

    def __init__(self, workload, capture, reference):
        self.workload = workload
        self.capture = capture
        self.reference = reference
        self.wall_s = []
        self.scale = []
        self.op_s = []
        self.build_us_per_sample = []
        self.digests = []
        self.failures = []

    def once(self, i, inp, tracer=None) -> bool:
        """Time one operation on `inp`, under `tracer`'s shims if given.

        The checks run afterwards, outside the timed section and the
        shims.  Returns whether the operation produced a result.
        """
        wl = self.workload
        before = self.reference.seconds()
        if tracer is not None:
            first_span = tracer.size()
            tracer.install()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = wl.run(inp, self.capture)
            else:
                result = tracer.call(ROOT, wl.run, inp, self.capture)
            elapsed = time.perf_counter() - t0
        except Exception:  # one failed operation must not end the run
            self.failures.append({"op": i, "error": traceback.format_exc(limit=3)})
            return False
        finally:
            if tracer is not None:
                tracer.uninstall()
        scale = REFERENCE_S / (0.5 * (before + self.reference.seconds()))
        if tracer is not None:
            tracer.scale_since(first_span, scale)
        problems = result.check()
        if problems:
            self.failures.append({"op": i, "problems": problems})
        self.wall_s.append(elapsed)
        self.scale.append(scale)
        self.op_s.append(elapsed * scale)
        self.build_us_per_sample.append(result.build_seconds / result.streamed * 1e6 * scale)
        self.digests.append(result.digest())
        return True


def main(argv=None) -> int:
    args = parse_args(argv)
    table = SMALL if args.small else WORKLOADS
    wl = table[args.workload]
    capture = ChainCapture()
    reference = Reference()
    first = wl.make_input(sub_seed(args.seed, 0))
    tiny = wl.tiny()
    tiny.run(tiny.make_input(0), capture).check()
    reference.seconds()
    print("ready", flush=True)
    # the pace right after set-up, which scales the set-up time
    setup_scale = reference.scale(repeats=3)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    plain = Run(wl, capture, reference)
    traced = Run(wl, capture, reference)
    tracer = Tracer() if args.trace else None
    attempted = 0
    start = time.perf_counter()
    rounds = []
    # start no round that would, at the median round time so far, end late
    while not rounds or time.perf_counter() - start + statistics.median(rounds) < args.seconds:
        t0 = time.perf_counter()
        inp = first if attempted == 0 else wl.make_input(sub_seed(args.seed, attempted))
        if plain.once(attempted, inp) and tracer is not None:
            if traced.once(attempted, inp, tracer) and traced.digests[-1] != plain.digests[-1]:
                traced.failures.append({"op": attempted, "problems": ["traced rules differ"]})
        attempted += 1
        rounds.append(time.perf_counter() - t0)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len({f["op"] for f in plain.failures + traced.failures})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "attempted": attempted,
        "failed": failed,
        "setup_scale": setup_scale,
        "wall_s": plain.wall_s,
        "scale": plain.scale,
        "op_s": plain.op_s,
        "build_us_per_sample": plain.build_us_per_sample,
        "digests": plain.digests,
        "failures": plain.failures + traced.failures,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer is not None:
        ops = len(traced.op_s)
        metrics, missing = layer_metrics(tracer, max(ops, 1))
        if ops:
            overhead = statistics.median(traced.op_s) / statistics.median(plain.op_s) - 1.0
            metrics["trace.overhead_frac"] = (overhead, "fraction")
        record["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["missing_metrics"] = missing
        record["missing_names"] = tracer.missing
        record["traced_op_s"] = traced.op_s
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(record), flush=True)
    return 0


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


if __name__ == "__main__":
    sys.exit(main())
