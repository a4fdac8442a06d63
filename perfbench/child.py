"""Run one `qskein` command in this fresh interpreter and report on it.

    python3 perfbench/child.py [--trace] verify SUITE [options...]

The package is imported from `src/` of the checkout that holds this file.
`qskein.cli.main(argv)` runs exactly as `python3 -m qskein` would run it; its
standard output is captured and returned.  Untraced, the only addition is a
time stamp when `suites.run_checks` starts.  With `--trace`, the
layer wrappers of `tracer.py` are installed first.

The last line of standard output is one JSON object: exit code, captured
report text, the start of `run_checks` on the `time.perf_counter` clock
(system-wide monotonic on Linux, so the parent can subtract its spawn time),
peak resident set in KiB and, when traced, the raw per-layer sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    trace = bool(argv) and argv[0] == "--trace"
    if trace:
        argv = argv[1:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import qskein.cli
    import qskein.suites

    if Path(qskein.__file__).resolve().parent.parent != src:
        print(f"qskein was imported from {qskein.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    stamps: dict[str, float] = {}
    inner = qskein.suites.run_checks

    def stamped_run_checks(checks, seed):
        stamps["start"] = time.perf_counter()
        cpu0 = tracing.process_cpu_s() if trace else 0.0
        try:
            return inner(checks, seed)
        finally:
            if trace:
                stamps["cpu_s"] = tracing.process_cpu_s() - cpu0

    qskein.suites.run_checks = stamped_run_checks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qskein.cli.main(argv)
    result = {
        "rc": rc,
        "stdout": out.getvalue(),
        "run_checks_start": stamps.get("start"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["suites.cpu_s"] = stamps.get("cpu_s", 0.0)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
