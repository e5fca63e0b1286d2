"""Command-line driver: generate samples, build, extend, benchmark.

Exit codes: 0 success, 2 bad specification or usage, 3 I/O failure,
4 insufficient samples, 5 null-space failure, 7 the benchmark's nested
chain failed in every repetition.  Data goes to stdout, diagnostics to
stderr.

`extend --removal-cap` limits how many removals one step's enumeration
visits; the step then chooses among the removals it found.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

import numpy as np

from .basis import BasisSpec, domain_from_samples
from .bench import ExperimentConfig, run_convergence
from .errors import InsufficientSamples, NullSpaceFailure, SampleQuadError
from .nested import ExtensionRequest, extend_rule
from .rule import QuadratureRule, construct_fixed_rule, sample_moments
from .sampling import (
    DistributionSpec,
    generate,
    read_samples,
    write_provenance,
    write_samples,
)

log = logging.getLogger("samplequad")

EXIT_SPEC = 2
EXIT_IO = 3
EXIT_INSUFFICIENT = 4
EXIT_NULLSPACE = 5
EXIT_BENCH = 7

MODE_ALIASES = {
    "continue": "continue_samples",
    "degree": "increase_degree",
    "resampled": "resampled",
}


def _load_json(path_or_inline: str) -> dict:
    text = path_or_inline
    if not text.lstrip().startswith("{"):
        with open(path_or_inline, encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def cmd_gen_samples(args) -> int:
    spec = DistributionSpec.from_json_dict(_load_json(args.dist))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    samples = generate(spec, args.count)
    write_samples(samples, args.out)
    write_provenance(samples, str(args.out) + ".meta.json")
    print(args.out)
    return 0


def cmd_build(args) -> int:
    samples = read_samples(args.samples)
    spec = BasisSpec(
        d=samples.d,
        size=args.degree_size,
        domain=domain_from_samples(samples.points),
    )
    rule = construct_fixed_rule(samples, spec)
    rule.save(args.out)
    resid = rule.moment_residual(sample_moments(samples, spec))
    print(f"nodes {rule.n_nodes}")
    print(f"min_weight {rule.weights.min():.6e}")
    print(f"moment_residual {resid:.6e}")
    print(args.out)
    return 0


def cmd_extend(args) -> int:
    base = QuadratureRule.load(args.rule)
    samples = read_samples(args.samples)
    req = ExtensionRequest(
        base=base,
        target_basis_size=args.degree_size,
        sample_source=samples,
        mode=MODE_ALIASES[args.mode],
        removal_cap=args.removal_cap,
    )
    rule = extend_rule(req, selection_seed=args.seed or 0)
    rule.save(args.out)
    n_base = base.n_nodes
    added = rule.n_nodes - n_base
    d_plus = args.degree_size - 1
    lo, hi = d_plus, n_base - 1 + d_plus + 1
    bound_ok = lo <= rule.n_nodes - 1 <= hi
    zero_fixed = int(np.count_nonzero((rule.weights == 0.0) & rule.fixed_mask))
    print(f"nodes {rule.n_nodes}")
    print(f"added {added}")
    print(f"node_count_bound {'ok' if bound_ok else 'violated'} ({lo} <= {rule.n_nodes - 1} <= {hi})")
    if zero_fixed:
        print(f"zero_weight_fixed_nodes {zero_fixed}")
    print(args.out)
    return 0


def cmd_bench_genz(args) -> int:
    config = ExperimentConfig.from_json_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = run_convergence(config)
    # every active family counts the same completed repetitions
    if 0 in report.completed_repetitions.values():
        log.error("the nested chain failed in every repetition")
        return EXIT_BENCH
    if config.active_families() != config.families:
        log.warning("corner peak excluded: its integral diverges for this density")
    report.to_csv(args.out)
    report.to_json(str(args.out) + ".json")
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplequad",
        description="Positive-weight nested quadrature rules from sample sets",
    )
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-samples", help="draw samples from a distribution spec")
    p.add_argument("--dist", required=True, help="JSON file or inline JSON spec")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="a .bin path is written binary, any other CSV")
    p.set_defaults(fn=cmd_gen_samples)

    p = sub.add_parser("build", help="construct a rule from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--degree-size", type=int, required=True, dest="degree_size",
                   help="number of basis functions (D+1)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("extend", help="extend an existing rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--degree-size", type=int, required=True, dest="degree_size")
    p.add_argument("--mode", choices=sorted(MODE_ALIASES), required=True)
    p.add_argument("--removal-cap", type=int, default=10**6, dest="removal_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("bench-genz", help="run the Genz convergence experiment")
    p.add_argument("--config", required=True, help="JSON file or inline JSON config")
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(fn=cmd_bench_genz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except InsufficientSamples as exc:
        log.error("%s", exc)
        return EXIT_INSUFFICIENT
    except NullSpaceFailure as exc:
        log.error("%s", exc)
        return EXIT_NULLSPACE
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except (SampleQuadError, ValueError) as exc:
        # a bad specification, a malformed file (a JSONDecodeError is a ValueError)
        log.error("%s", exc)
        return EXIT_SPEC

