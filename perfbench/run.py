"""Run one samplequad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-d2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process with one BLAS thread (worker.py); set-up is also measured in
separate processes that stop after set-up, and the median is reported.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the timing shims.  A readable summary, including
the error rate, precedes it.  The full record of the run (per-operation
times, output digests, versions, failures) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("stream-d2", "genz-uniform", "genz-banana")

# set-up is measured in this many processes besides the measuring one
SETUP_PROBES = 4
# the whole run, set-up probes included, must end within this
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="self-test sizes: about a second per operation")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, deadline: float, setup_only: bool):
    """Start a worker; return (set-up seconds, its record).

    The set-up time runs from process start until the worker says it is
    ready; the worker's pace right after that scales it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code} ({' '.join(cmd[1:])})")
    record = json.loads(rest.strip().splitlines()[-1])
    return setup_s * record["setup_scale"], record


def _commit() -> str:
    if not (ROOT / ".git").exists():  # git would look above the checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values between the first and third quartile.

    The inputs of one run differ in cost, so the mean uses them better
    than the median; dropping the outer quarters keeps it robust.
    """
    v = sorted(values)
    k = len(v) // 4
    return statistics.mean(v[k:len(v) - k])


def end_to_end(record: dict, setup_s: list[float]) -> dict:
    return {
        "build_us_per_sample": (interquartile_mean(record["build_us_per_sample"]), "us"),
        "op_s": (interquartile_mean(record["op_s"]), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "samplequad" / "__init__.py").is_file():
        print(f"no samplequad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = [worker(args, deadline, True)[0] for _ in range(SETUP_PROBES)]
        first_setup, record = worker(args, deadline, False)
    except (RuntimeError, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_s.append(first_setup)
    record["setup_s"] = setup_s
    record["commit"] = _commit()

    if args.trace:
        metrics = {k: (m["value"], m["unit"]) for k, m in record["layer_metrics"].items()}
    else:
        metrics = end_to_end(record, setup_s) if record["op_s"] else {}
    attempted, failed = record["attempted"], record["failed"]
    correct = failed == 0 and bool(metrics)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  commit {record['commit']}  "
          f"numpy {record['numpy']}  scipy {record['scipy']}  nproc {record['nproc']}")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} failed of {attempted})")
    if record["wall_s"]:
        print(f"  {'unscaled op wall time':28s} {statistics.median(record['wall_s']):.6g} s "
              f"(median; pace scale {statistics.median(record['scale']):.3f})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    for missing in record.get("missing_metrics", []):
        print(f"  {missing:28s} missing: a name it needs is gone")
    for failure in record["failures"][:5]:
        print(f"  failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
