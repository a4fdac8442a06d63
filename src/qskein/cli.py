"""Command line front end.

Two command families:

  qskein dims surface --genus G --punctures P --boundary B --N N
  qskein dims manifold --genus G --markings K --N N
  qskein verify SUITE [--N N] [--seed S] [--trials T] [--max-exp E]
                      [--kmax K] [--triangulation FILE]

verify SUITE (one of suites.SUITES) builds its checks with that suite's
builder in suites (suites.bigon_suite, suites.torus_skein_suite, ...), which
loads the suite's own module alone; the builder gets N and the knobs
suites.SUITES lists for the suite.  Output is JSON on stdout (add --pretty
for indentation).  Reports are deterministic for a fixed command line and
seed apart from elapsed_ms.
Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or input
error, including a dims count too large to print, verify work above
suites.MAX_WORK and a bigon --max-exp above suites.MAX_EXP.  --trials,
--max-exp and --kmax must be positive for every suite, whether or not it
reads them, and only qtorus reads --triangulation: any other suite refuses
it.  A reader that closes stdout early changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import suites

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
    verify.add_argument("suite", choices=suites.SUITES)
    verify.add_argument("--N", type=int, default=3, dest="order")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=50)
    verify.add_argument("--max-exp", type=int, default=3, dest="max_exp")
    verify.add_argument("--kmax", type=int, default=4)
    verify.add_argument("--triangulation", type=str, default=None)
    verify.add_argument("--pretty", action="store_true")
    return parser


def _cmd_dims(args) -> tuple[int, dict | None]:
    from .dimensions import (
        Marked3ManifoldDescriptor,
        SurfaceDescriptor,
        lambda_bounds,
        localized_dimension,
        module_bound,
        r_of_surface,
    )

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
        return 2, None
    return 0, payload


def _load_suite(args) -> list:
    from .linear import odd_order

    order = odd_order(args.order)
    if order < 3 and args.suite != "counts":
        raise ValueError("N must be an odd number >= 3 for this suite")
    knobs = {"--trials": args.trials, "--max-exp": args.max_exp, "--kmax": args.kmax}
    for flag, value in knobs.items():
        if value < 1:
            raise ValueError(f"{flag} must be positive")
    params = suites.SUITES[args.suite]
    values = vars(args)
    if args.triangulation is not None:
        if "triangulation" not in params:
            raise ValueError(f"{args.suite} reads no --triangulation; only qtorus does")
        from .quantum_torus import Triangulation

        try:
            with open(args.triangulation, encoding="utf-8") as handle:
                tri = Triangulation.from_json(handle.read())
        except ValueError as exc:
            raise ValueError(f"{args.triangulation}: {exc}") from exc
        values = {**values, "triangulation": tri}
    builder = getattr(suites, args.suite.replace("-", "_") + "_suite")
    return builder(order, *[values[name] for name in params])


def _cmd_verify(args) -> tuple[int, dict | None]:
    try:
        checks = _load_suite(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    results = suites.run_checks(checks, args.seed)
    summary = {"pass": 0, "fail": 0, "error": 0}
    for r in results:
        summary[r.status] += 1
    report = {
        "suite": args.suite,
        "N": args.order,
        "seed": args.seed,
        "checks": [r._asdict() for r in results],
        "summary": summary,
    }
    return (0 if summary["fail"] == 0 and summary["error"] == 0 else 1), report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    status, payload = (_cmd_dims if args.command == "dims" else _cmd_verify)(args)
    if payload is not None:
        try:
            print(json.dumps(payload, indent=2 if args.pretty else None))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: point stdout at os.devnull so the flush at exit is quiet
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
