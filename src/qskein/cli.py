"""Command line front end.

Two command families:

  qskein dims surface --genus G --punctures P --boundary B --N N
  qskein dims manifold --genus G --markings K --N N
  qskein verify SUITE [--N N] [--seed S] [--trials T] [--max-exp E]
                      [--kmax K] [--triangulation FILE]

Output is JSON on stdout (add --pretty for indentation).  Reports are
deterministic for a fixed command line and seed apart from elapsed_ms.
Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or input
error, including a bad SKEIN_VERIFY_THREADS and a dims count too large to
print.  SKEIN_VERIFY_THREADS caps in-suite parallelism (default 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import suites
from .dimensions import (
    Marked3ManifoldDescriptor,
    SurfaceDescriptor,
    lambda_bounds,
    localized_dimension,
    module_bound,
    r_of_surface,
)
from .quantum_torus import Triangulation

SUITES = ("bigon", "qtorus", "torus-skein", "chebyshev", "counts")

# Python converts integers of at most 4300 decimal digits to text by default.
MAX_PRINTED_DIGITS = 4300


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qskein",
        description="Exact verification of skein algebra dimension claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="closed-form dimensions and bounds")
    dims_sub = dims.add_subparsers(dest="target", required=True)

    surf = dims_sub.add_parser("surface", help="punctured bordered surface")
    surf.add_argument("--genus", type=int, required=True)
    surf.add_argument("--punctures", type=int, required=True)
    surf.add_argument("--boundary", type=int, required=True)
    surf.add_argument("--N", type=int, required=True, dest="order")
    surf.add_argument("--pretty", action="store_true")

    mani = dims_sub.add_parser("manifold", help="marked 3-manifold")
    mani.add_argument("--genus", type=int, required=True)
    mani.add_argument("--markings", type=int, required=True)
    mani.add_argument("--N", type=int, required=True, dest="order")
    mani.add_argument("--pretty", action="store_true")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--N", type=int, default=3, dest="order")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=50)
    verify.add_argument("--max-exp", type=int, default=3, dest="max_exp")
    verify.add_argument("--kmax", type=int, default=4)
    verify.add_argument("--triangulation", type=str, default=None)
    verify.add_argument("--pretty", action="store_true")
    return parser


def _emit(payload: dict, pretty: bool):
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _cmd_dims(args) -> int:
    try:
        if args.target == "surface":
            s = SurfaceDescriptor(args.genus, args.punctures, args.boundary)
            lower, upper = lambda_bounds(s, args.order)
            payload = {
                "r": r_of_surface(s),
                "K": localized_dimension(s, args.order),
                "lambda_lower": lower,
                "lambda_upper": upper,
            }
        else:
            m = Marked3ManifoldDescriptor(args.genus, args.markings)
            payload = {"bound": module_bound(m, args.order)}
        for name, value in payload.items():
            if value >= 10**MAX_PRINTED_DIGITS:
                raise ValueError(
                    f"{name} has more than {MAX_PRINTED_DIGITS} decimal digits; refused"
                )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.pretty)
    return 0


def _load_suite(args) -> list:
    suites.thread_count()
    order = args.order
    if order % 2 == 0 or order < 1:
        raise ValueError("N must be odd")
    if args.suite == "counts":
        return suites.counts_suite(order)
    if order < 3:
        raise ValueError("N must be an odd number >= 3 for this suite")
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    if args.suite == "bigon":
        return suites.bigon_suite(order, args.trials, max(1, args.max_exp))
    if args.suite == "qtorus":
        tri = None
        if args.triangulation:
            with open(args.triangulation, encoding="utf-8") as handle:
                tri = Triangulation.from_json(handle.read())
        return suites.qtorus_suite(order, args.trials, tri)
    if args.suite == "torus-skein":
        if args.kmax < 1:
            raise ValueError("--kmax must be positive")
        return suites.torus_skein_suite(order, args.kmax, args.trials)
    return suites.chebyshev_suite(order, args.trials)


def _cmd_verify(args) -> int:
    try:
        checks = _load_suite(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = suites.run_checks(checks, args.seed)
    summary = {"pass": 0, "fail": 0, "error": 0}
    for r in results:
        summary[r.status] += 1
    report = {
        "suite": args.suite,
        "N": args.order,
        "seed": args.seed,
        "checks": [
            {
                "id": r.id,
                "status": r.status,
                "detail": r.detail,
                "elapsed_ms": r.elapsed_ms,
            }
            for r in results
        ],
        "summary": summary,
    }
    _emit(report, args.pretty)
    return 0 if summary["fail"] == 0 and summary["error"] == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "dims":
        return _cmd_dims(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
