"""Command-line front end.

Subcommands: gen-frame, build-net, estimate, oracle, report.  Exit codes:
0 success, 2 usage or I/O failure (an input file that is not UTF-8 or does
not parse, an ``estimate`` frame that is not signed-permutation invariant,
unit norm and tight, or an output path refused by ``main`` before any work),
3 infeasible budget, 4 internal invariant violation.  Progress goes to
stderr only; piped CSV stays clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    certify,
    chunk_rows,
    condition_number_bound,
    min_spanning_K,
    read_bounds_csv,
    require_sandwich,
    resolve_threads,
    sweep_all_K,
    write_bounds_csv,
)
from .epsnet import (
    NetConfig,
    pruned_cardinality,
    volumetric_bound_log,
)
from .errors import (
    InvalidInputError,
    InvariantViolationError,
    NerfCertError,
    OracleInfeasibleError,
)
from .frames import (
    GeneratorSpec,
    orbit_signed_permutations,
    read_frame,
    require_certifiable,
    verify_untf,
    write_frame,
)
from .oracle import (
    DEFAULT_BUDGET,
    exact_bounds_all_K,
    read_oracle_csv,
    write_oracle_csv,
)

EXIT_OK = 0
EXIT_USAGE_IO = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerf-cert",
        description="Certify erasure-robustness bounds of signed-permutation "
        "orbit frames.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-frame", help="generate an orbit frame file")
    p.add_argument("-M", type=int, required=True, help="ambient dimension")
    p.add_argument("-k", type=int, required=True, help="generator support size")
    p.add_argument("-o", "--output", required=True, help="frame file path")

    p = sub.add_parser("build-net", help="net summary report (JSON)")
    p.add_argument("-M", type=int, required=True)
    p.add_argument("--eps-sq", type=float, required=True)
    p.add_argument("-o", "--output", required=True, help="JSON report path")

    p = sub.add_parser("estimate", help="net sweep + certified bounds CSV")
    p.add_argument("-f", "--frame", required=True, help="frame file path")
    p.add_argument("--eps-sq", type=float, required=True)
    p.add_argument("--cap-mode", choices=["untf"], default="untf",
                   help="the certificate always caps at N/M; kept for scripts")
    p.add_argument("--threads", type=int, default=0, help="0 = CPU count")
    p.add_argument("-o", "--output", required=True, help="bounds CSV path")
    p.add_argument("--report", help="JSON run report path")

    p = sub.add_parser("oracle", help="exhaustive exact bounds CSV")
    p.add_argument("-f", "--frame", required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--check", help="estimate CSV to verify the sandwich against")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("report", help="merge estimate/oracle CSVs per K")
    p.add_argument("--estimate", required=True, help="bounds CSV")
    p.add_argument("--oracle", help="oracle CSV (optional)")
    p.add_argument("-o", "--output", help="merged CSV (default stdout)")
    return parser


def _cmd_gen_frame(args) -> int:
    frame = orbit_signed_permutations(GeneratorSpec(args.M, args.k))
    write_frame(frame, args.output)
    report = verify_untf(frame)
    print(f"N={frame.N} tightness_defect={report.frobenius_defect:.3e}")
    return EXIT_OK


def _cmd_build_net(args) -> int:
    config = NetConfig.create(args.M, args.eps_sq)
    payload = {
        "M": config.M,
        "epsilon_sq": config.epsilon_sq,
        "L": config.L,
        "delta": f"{config.delta:.17g}",
        "cardinality_full": str(config.cardinality),
        "cardinality_pruned": pruned_cardinality(config),
        "volumetric_bound_log10": volumetric_bound_log(
            config.M, math.sqrt(config.epsilon_sq)
        )
        / math.log(10.0),
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"L={config.L} full={config.cardinality} "
          f"pruned={payload['cardinality_pruned']}")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """Peak resident set size in MiB: VmHWM where /proc/self/status exists,
    else ru_maxrss (bytes on macOS; KiB on Linux, from the launcher's size)."""
    try:
        with open("/proc/self/status") as fh:
            hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
        return int(hwm[0]) / 1024
    except (OSError, IndexError):
        unit = 2**20 if sys.platform == "darwin" else 2**10
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def _require_writable(args) -> None:
    """Refuse, before any work, each output a parsed command line names that
    is a directory or lies in a missing directory (the write would fail), or
    that resolves to one of the command's inputs or its other output (the
    write would destroy that file)."""
    given = vars(args)
    inputs = filter(None, map(given.get, ("frame", "check", "estimate", "oracle")))
    named = {os.path.realpath(path): path for path in inputs}
    for path in filter(None, map(given.get, ("output", "report"))):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise InvalidInputError(f"{path}: a directory, or its directory is missing")
        real = os.path.realpath(path)
        if real in named:
            raise InvalidInputError(f"{path}: the same file as {named[real]}")
        named[real] = path


def _cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    frame = read_frame(args.frame)
    require_certifiable(frame)
    config = NetConfig.create(frame.M, args.eps_sq)
    t1 = time.perf_counter()
    table = sweep_all_K(
        frame, config, threads=args.threads, progress=True
    )
    t2 = time.perf_counter()
    certify(table)
    t3 = time.perf_counter()
    write_bounds_csv(table, args.output)
    k_span = min_spanning_K(table)
    cond = condition_number_bound(table, k_span) if k_span else None
    print(f"min_spanning_K={k_span}")
    if cond is not None:
        print(f"condition_number_bound[{k_span}]={cond:.4f}")
    if args.report:
        sweep_s = t2 - t1
        payload = {
            "tool_version": __version__,
            "status": "ok",
            "config": {
                "M": frame.M,
                "N": frame.N,
                "epsilon_sq": args.eps_sq,
                "L": config.L,
                "delta": f"{config.delta:.17g}",
                "threads": resolve_threads(args.threads),
                "frame_file": args.frame,
            },
            "counts": {
                "net_cardinality_full": str(config.cardinality),
                "net_points_used": table.net_points_used,
                "points_skipped": config.cardinality - table.net_points_used,
                "chunk_rows": chunk_rows(frame.N),
            },
            "timings_s": {
                "setup": t1 - t0,
                "sweep": sweep_s,
                "certify": t3 - t2,
            },
            "rates": {
                "sweep_points_per_s": table.net_points_used / sweep_s
                if sweep_s > 0
                else None,
            },
            "memory": {"peak_rss_mb": _peak_rss_mb()},
            "results": {
                "min_spanning_K": k_span,
                "condition_number_bound_at_min_spanning_K": cond,
                "alpha_eps_at_N": table.alpha_eps[-1],
                "beta_eps_at_N": table.beta_eps[-1],
            },
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    frame = read_frame(args.frame)
    if args.check:
        table = read_bounds_csv(args.check)
        if (table.config.M, table.N) != (frame.M, frame.N):
            raise InvalidInputError(
                f"{args.check}: bounds of a {table.config.M}x{table.N} frame, "
                f"but {args.frame} is {frame.M}x{frame.N}"
            )
    results = exact_bounds_all_K(
        frame, k_min=args.k_min, k_max=args.k_max, budget=args.budget
    )
    write_oracle_csv(results, args.output, frame.M)
    if args.check:
        require_sandwich(table, {r.K: (r.alpha, r.beta) for r in results})
        print("sandwich verified")
    return EXIT_OK


def _cmd_report(args) -> int:
    est = read_bounds_csv(args.estimate)
    N = est.N
    oracle_rows = read_oracle_csv(args.oracle, est.config.M, N) if args.oracle else {}
    require_sandwich(est, oracle_rows)
    exact = [oracle_rows.get(k, (math.nan, math.nan)) for k in range(1, N + 1)]
    np.savetxt(
        args.output or sys.stdout,
        np.column_stack((np.arange(1, N + 1), est.alpha_lower, est.alpha_eps,
                         exact, est.beta_eps, est.beta_upper)),
        fmt="%.17g", delimiter=",", comments="",
        header="K,alpha_lower,alpha_eps,alpha_exact,beta_exact,beta_eps,beta_upper",
    )
    return EXIT_OK


_COMMANDS = {
    "gen-frame": _cmd_gen_frame,
    "build-net": _cmd_build_net,
    "estimate": _cmd_estimate,
    "oracle": _cmd_oracle,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_writable(args)
        return _COMMANDS[args.command](args)
    except (NerfCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OracleInfeasibleError):
            return EXIT_INFEASIBLE
        if isinstance(exc, InvariantViolationError):
            return EXIT_INVARIANT
        return EXIT_USAGE_IO


if __name__ == "__main__":
    sys.exit(main())
