"""End-to-end and per-layer benchmark of `qskein verify`.

    python3 perfbench/run.py --workload bigon --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --out results.json
    python3 perfbench/run.py --workload all --compare results.json

Run it from the root of a checkout: the package is imported from `src/`.
Each `verify` command runs in a fresh interpreter (`child.py`), one after
another.  `--seed` fixes the workload's command lines.  A round runs each of
them once; rounds repeat until the next round would end after `--seconds`.
Between commands a fixed piece of stdlib arithmetic (`probe_s`) times the
machine's speed at that moment, and each command's times are scaled by it to
the probe's reference speed.  The end-to-end metrics take each command's
median scaled time over the rounds and combine those over the commands.
With `--trace 1` one round runs, every command both untraced and traced, and
the per-layer metrics of the traced children are printed instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation is one
`verify` command; it fails when its report is wrong (see `facts.py`), when a
threaded report differs from the sequential one, or when a traced report
differs from the untraced one.  The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import facts
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60  # commands take seconds; a run must end well within 180 s

# The probe's time on the reference machine (2 shared vCPUs, Python 3.11.7)
# when the host lets it run at full speed; see README.md, "Machine speed".
PROBE_REFERENCE_S = 0.060
PROBE_REPEATS = 50
_PROBE_X = [Fraction(i + 1, 2 * i + 3) for i in range(20)]
_PROBE_Y = [Fraction(3 * i + 1, i + 5) for i in range(20)]
# The benchmark and its children run on one CPU, so that the probe times the
# CPU the command runs on; threaded commands run on every CPU, and their
# probes time each CPU in turn.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
BENCH_CPUS = frozenset({min(ALL_CPUS)})

# Workload sizes.  N comes from the grid 7, 11, 21; see README.md for why a
# round takes 2–3 s and why some N = 21 commands are left out.
# N = 21 runs twice, with two seeds: its certificate check is the slowest, its
# cost varies with the seed, and the two runs' check times are pooled.
BIGON_ORDERS, BIGON_TRIALS, BIGON_MAX_EXP = (7, 11, 21, 21), 120, 4
QTORUS_ORDERS = (7, 11)
CHEBYSHEV_ORDER, CHEBYSHEV_TRIALS = 7, 100
TORUS_SKEIN_ORDERS, TORUS_SKEIN_KMAX = (11, 21), 8
THREADED_ORDER, THREADED_TRIALS, THREADED_THREADS = 11, 60, 2

# The workloads of BENCHMARK.json.  `threaded` runs on request only: its
# slowest_check_s is not steady enough for a bound (see README.md).
WORKLOADS = ("bigon", "qtorus", "chebyshev")
UNLISTED_WORKLOADS = ("threaded",)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "slowest_check_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Command:
    """One `qskein verify` command line and the environment it runs in."""

    suite: str
    N: int
    seed: int
    trials: int = 50
    max_exp: int = 3
    kmax: int = 4
    threads: int = 1

    def argv(self) -> list[str]:
        argv = ["verify", self.suite, "--N", str(self.N), "--seed", str(self.seed)]
        if self.suite != "counts":
            argv += ["--trials", str(self.trials)]
        if self.suite == "bigon":
            argv += ["--max-exp", str(self.max_exp)]
        if self.suite == "torus-skein":
            argv += ["--kmax", str(self.kmax)]
        return argv

    def spec(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        env = f"SKEIN_VERIFY_THREADS={self.threads} " if self.threads > 1 else ""
        return env + "qskein " + " ".join(self.argv())


def workload_commands(name: str, seed: int, orders=None) -> list[Command]:
    """The commands of every round of a run; `orders` overrides the workload's N values."""
    rng = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rng.randrange(1_000_000)

    cmds: list[Command] = []
    if name == "bigon":
        for n in orders or BIGON_ORDERS:
            cmds.append(Command("bigon", n, draw(), trials=BIGON_TRIALS, max_exp=BIGON_MAX_EXP))
            cmds.append(Command("counts", n, draw()))
    elif name == "qtorus":
        for n in orders or QTORUS_ORDERS:
            cmds.append(Command("qtorus", n, draw()))
    elif name == "chebyshev":
        for n in orders or (CHEBYSHEV_ORDER,):
            cmds.append(Command("chebyshev", n, draw(), trials=CHEBYSHEV_TRIALS))
        for n in orders or TORUS_SKEIN_ORDERS:
            cmds.append(Command("torus-skein", n, draw(), kmax=TORUS_SKEIN_KMAX))
    elif name == "threaded":
        for n in orders or (THREADED_ORDER,):  # two seeds: the cost varies with the seed
            cmds.extend(Command("qtorus", n, draw(), trials=THREADED_TRIALS, threads=THREADED_THREADS)
                        for _ in range(2))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cmds


def command_cpus(cmd: Command) -> frozenset:
    return ALL_CPUS if cmd.threads > 1 else BENCH_CPUS


def run_child(cmd: Command, trace: bool = False) -> dict:
    """Run one command in a fresh interpreter; wall and set-up are taken here."""
    env = dict(os.environ)
    env.pop("SKEIN_VERIFY_THREADS", None)
    if cmd.threads > 1:
        env["SKEIN_VERIFY_THREADS"] = str(cmd.threads)
    args = [sys.executable, str(HERE / "child.py")] + (["--trace"] if trace else []) + cmd.argv()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            args, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, command_cpus(cmd)),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{cmd}: no result within {CHILD_TIMEOUT_S} s"}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"{cmd}: child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    res["wall_s"] = wall
    if res.get("run_checks_start") is not None:
        res["setup_s"] = res["run_checks_start"] - start
    return res


def probe_s(cpus: frozenset) -> float:
    """Time a fixed piece of `Fraction` and dict arithmetic: the machine's speed now.

    It runs once on each of `cpus` and returns the mean.  It uses no part of
    the program, so a change to the program cannot move it.
    """
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            acc: dict[int, Fraction] = {}
            for i, x in enumerate(_PROBE_X):
                for j, y in enumerate(_PROBE_Y):
                    acc[(i + j) % 13] = acc.get((i + j) % 13, 0) + x * y
        times.append(time.perf_counter() - start)
    os.sched_setaffinity(0, BENCH_CPUS)
    return statistics.mean(times)


def command_problems(cmd: Command, res: dict) -> list[str]:
    if "error" in res:
        return [res["error"]]
    return facts.report_problems(res["rc"], res["stdout"], cmd.spec())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def sequential_references(commands: list[Command], tally: Tally) -> dict[int, str]:
    """Sequential reports of the threaded commands, to compare every threaded report with."""
    references = {}
    for i, cmd in enumerate(commands):
        if cmd.threads > 1:
            seq = replace(cmd, threads=1)
            res = run_child(seq)
            problems = command_problems(seq, res)
            tally.record(problems)
            if not problems:
                references[i] = res["stdout"]
    return references


def run_round(commands: list[Command], references: dict[int, str], tally: Tally,
              samples: list[list[dict]]):
    """Run every command once, untraced; keep the results of those that passed.

    A probe runs after each command, and before it unless the probe after the
    previous command timed the same CPUs.  A command's `scale` is the
    reference probe time over the mean of the probes around it.
    """
    last = (None, 0.0)  # CPUs and result of the latest probe
    for i, cmd in enumerate(commands):
        cpus = command_cpus(cmd)
        before = last[1] if last[0] == cpus else probe_s(cpus)
        res = run_child(cmd)
        after = probe_s(cpus)
        last = (cpus, after)
        problems = command_problems(cmd, res)
        if not problems and i in references and not facts.same_report(res["stdout"], references[i]):
            problems = [f"{cmd}: report differs from the sequential one"]
        tally.record(problems)
        if not problems:
            res["scale"] = PROBE_REFERENCE_S / ((before + after) / 2)
            samples[i].append(res)


def end_to_end(samples: list[list[dict]]) -> dict[str, float]:
    """Median over the rounds of each command's scaled times, combined over the commands.

    A check's time is its median over every run of it at one N: commands that
    differ only in their seed share it.
    """
    runs = [rs for rs in samples if rs]
    if not runs:
        return dict.fromkeys(END_TO_END, 0.0)
    per_check: dict[tuple, list[float]] = {}
    for rs in runs:
        for r in rs:
            report = json.loads(r["stdout"])
            for c in report["checks"]:
                key = (report["N"], c["id"])
                per_check.setdefault(key, []).append(c["elapsed_ms"] / 1000.0 * r["scale"])
    return {
        "wall_s": sum(statistics.median(r["wall_s"] * r["scale"] for r in rs) for rs in runs),
        "setup_s": sum(statistics.median(r["setup_s"] * r["scale"] for r in rs) for rs in runs),
        "slowest_check_s": max(statistics.median(v) for v in per_check.values()),
        "peak_rss_mb": max(statistics.median(r["maxrss_kb"] for r in rs) for rs in runs) / 1024.0,
    }


def measure(name: str, seed: int, seconds: float, orders=None, log=print):
    """Untraced rounds of the same commands until the next round would end after `seconds`."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    commands = workload_commands(name, seed, orders)
    references = sequential_references(commands, tally)
    samples: list[list[dict]] = [[] for _ in commands]
    rounds = 0
    while True:
        begun = time.perf_counter()
        run_round(commands, references, tally, samples)
        rounds += 1
        now = time.perf_counter()
        if now + (now - begun) > deadline:
            break
    log(f"{name}: {rounds} rounds of {len(commands)} commands, {tally.attempted} operations")
    for cmd, rs in zip(commands, samples):
        if rs:
            walls = [r["wall_s"] for r in rs]
            scales = [r["scale"] for r in rs]
            log(f"  {cmd}: wall median {statistics.median(walls):.3f} s as measured, "
                f"machine speed {min(scales):.2f}-{max(scales):.2f} of the reference")
    return end_to_end(samples), END_TO_END, tally


def trace_layers(name: str, seed: int, orders=None, log=print):
    """One round, each command untraced and traced; per-layer sums of the traced runs."""
    tally = Tally()
    raw: dict[str, float] = {}
    plain_wall = traced_wall = 0.0
    for cmd in workload_commands(name, seed, orders):
        plain = run_child(cmd)
        plain_problems = command_problems(cmd, plain)
        traced = run_child(cmd, trace=True)
        traced_problems = command_problems(cmd, traced)
        if not plain_problems and not traced_problems:
            if not facts.same_report(plain["stdout"], traced["stdout"]):
                traced_problems = [f"{cmd}: traced report differs from the untraced one"]
            plain_wall += plain["wall_s"]
            traced_wall += traced["wall_s"]
            for key, value in traced["layers"].items():
                raw[key] = raw.get(key, 0) + value
        tally.record(plain_problems)
        tally.record(traced_problems)
    log(f"{name}: traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s, "
        f"tracing overhead {traced_wall - plain_wall:.3f} s")
    return tracer.summarise(raw), tracer.PER_LAYER, tally


def run_workload(name: str, seed: int, seconds: float, trace: bool, orders=None, log=print) -> dict:
    orders_used = sorted({c.N for c in workload_commands(name, seed, orders)})
    fact_problems = facts.program_problems(orders_used)
    if trace:
        values, units, tally = trace_layers(name, seed, orders, log)
    else:
        values, units, tally = measure(name, seed, seconds, orders, log)
    for problem in fact_problems + tally.problems[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    return {
        "correct": not fact_problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def print_comparison(earlier_path: str, results: dict[str, dict], log=print):
    """Ratio of each metric to the same metric in an earlier result file."""
    with open(earlier_path, encoding="utf-8") as handle:
        earlier = json.load(handle)["workloads"]
    for name, res in results.items():
        base = earlier.get(name)
        if base is None:
            log(f"{name}: no earlier result")
            continue
        for metric, now in res["metrics"].items():
            then = base["metrics"].get(metric, {}).get("value")
            if then:
                log(f"{name} {metric}: {now['value']:.4f} / {then:.4f} {now['unit']} "
                      f"= {now['value'] / then:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results of this run to this JSON file")
    parser.add_argument("--compare", help="print ratios against an earlier --out file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qskein" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'qskein'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.sched_setaffinity(0, BENCH_CPUS)

    names = WORKLOADS + UNLISTED_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} attempted {results[name]['attempted']}, failed {results[name]['failed']}")
    if args.compare:
        print_comparison(args.compare, results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "python": sys.version.split()[0], "nproc": os.cpu_count(),
                       "workloads": results}, handle, indent=1)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
