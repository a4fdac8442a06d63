"""Self-test of the benchmark: every workload at N = 3 through the same checks.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It also shows that the checks are not
vacuous: a tampered report (a status flipped to `fail`, a wrong count in a
detail, a threaded report that differs) counts as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import facts
import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))
SMALL = (3,)


def quiet(*_args, **_kwargs):
    pass


class WorkloadsAtSmallOrder(unittest.TestCase):
    def test_every_workload_untraced(self):
        for name in run.WORKLOADS + run.UNLISTED_WORKLOADS:
            with self.subTest(workload=name):
                res = run.run_workload(name, seed=0, seconds=0, trace=False, orders=SMALL, log=quiet)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                expected = len(run.workload_commands(name, 0, SMALL))
                if name == "threaded":
                    expected *= 2  # each threaded command has a sequential reference
                self.assertEqual(res["attempted"], expected)
                self.assertEqual(set(res["metrics"]), set(run.END_TO_END))
                for metric in res["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_every_workload_traced(self):
        for name in run.WORKLOADS + run.UNLISTED_WORKLOADS:
            with self.subTest(workload=name):
                res = run.run_workload(name, seed=0, seconds=0, trace=True, orders=SMALL, log=quiet)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                values = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertEqual(set(values), set(tracer.PER_LAYER))
                self.assertGreater(values["cli.self_s"], 0)
                self.assertGreater(values["suites.run_checks.wall_s"], 0)
                if name == "chebyshev":
                    # Polynomial holds Fractions directly: no Scalar is touched.
                    self.assertEqual(values["scalars.mul.calls"], 0)
                    self.assertGreater(values["chebyshev.poly_mul.calls"], 0)
                    self.assertGreater(values["chebyshev.family_cache.hit_share"], 0)
                else:
                    self.assertGreater(values["scalars.mul.calls"], 0)
                    self.assertEqual(values["chebyshev.poly_mul.calls"], 0)
                if name == "bigon":
                    self.assertGreater(values["oq_sl2.normal_form.calls"], 0)
                    self.assertGreater(values["oq_sl2.mul.term_pairs"], 0)
                    self.assertEqual(values["quantum_torus.mul.calls"], 0)
                if name in ("qtorus", "threaded"):
                    self.assertGreater(values["quantum_torus.zbasis_coordinates.calls"], 0)
                    self.assertGreater(values["scalars.pow.repeat_share"], 0)
                    self.assertEqual(values["oq_sl2.mul.calls"], 0)


class ChecksAreNotVacuous(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cmd = run.Command("bigon", 3, 5, trials=10, max_exp=2)
        cls.res = run.run_child(cls.cmd)
        cls.report = json.loads(cls.res["stdout"])

    def problems(self, report, rc=0):
        return facts.report_problems(rc, json.dumps(report), self.cmd.spec())

    def tampered(self, check_id, **changes):
        report = json.loads(self.res["stdout"])
        for check in report["checks"]:
            if check["id"] == check_id:
                check.update(changes)
        return report

    def test_untouched_report_passes(self):
        self.assertEqual(self.problems(self.report), [])

    def test_flipped_status_fails(self):
        report = self.tampered("bigon-power-subalgebra-commutes", status="fail")
        self.assertTrue(self.problems(report))

    def test_wrong_count_in_detail_fails(self):
        right = facts.spanning_count(3)
        report = self.tampered("bigon-spanning-count", detail=f"spanning set has {right + 1} elements")
        self.assertTrue(self.problems(report))
        cap = 2
        report = self.tampered(
            "bigon-degree-formula-vs-oracle",
            detail=f"degree formula matches the expansion oracle on {(2 * cap + 1) * (cap + 1) ** 2 - 1} indices",
        )
        self.assertTrue(self.problems(report))

    def test_missing_check_and_bad_exit_fail(self):
        report = json.loads(self.res["stdout"])
        report["checks"].pop()
        self.assertTrue(self.problems(report))
        self.assertTrue(self.problems(self.report, rc=1))

    def test_tampered_report_counts_as_failed_operation(self):
        tally = run.Tally()
        tally.record(self.problems(self.report))
        tally.record(self.problems(self.tampered("bigon-spanning-count", status="error")))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_threaded_difference_is_caught(self):
        other = self.tampered("bigon-spanning-count", detail="spanning set has 0 elements")
        timings_only = self.tampered("bigon-spanning-count", elapsed_ms=123456.0)
        self.assertFalse(facts.same_report(self.res["stdout"], json.dumps(other)))
        self.assertTrue(facts.same_report(self.res["stdout"], json.dumps(timings_only)))

    def test_threaded_round_compares_with_sequential(self):
        tally = run.Tally()
        commands = [replace(self.cmd, suite="qtorus", threads=2)]
        references = run.sequential_references(commands, tally)
        samples = [[]]
        run.run_round(commands, references, tally, samples)
        self.assertEqual((tally.attempted, tally.failed, len(samples[0])), (2, 0, 1))
        references[0] = references[0].replace('"pass"', '"fail"', 1)
        run.run_round(commands, references, tally, samples)
        self.assertEqual((tally.attempted, tally.failed, len(samples[0])), (3, 1, 1))


class IndependentFacts(unittest.TestCase):
    def test_constructions(self):
        self.assertEqual(facts.cyclotomic_by_mobius(9), [1, 0, 0, 1, 0, 0, 1])
        self.assertEqual(facts.cyclotomic_by_mobius(15), [1, -1, 0, 1, -1, 1, 0, -1, 1])
        self.assertEqual(facts.chebyshev_t_closed_form(4), {4: 1, 2: -4, 0: 2})
        self.assertEqual(facts.spanning_count(3), 40)

    def test_program_agrees(self):
        self.assertEqual(facts.program_problems((3, 7, 11, 21)), [])


class CommandLine(unittest.TestCase):
    def test_benchmark_file_lists_the_printed_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, tracer.PER_LAYER)

    def test_compare_prints_ratios(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as tmp:
            earlier = Path(tmp) / "earlier.json"
            metrics = {m: {"value": 2.0, "unit": u} for m, u in run.END_TO_END.items()}
            earlier.write_text(json.dumps({"workloads": {"bigon": {"metrics": metrics}}}))
            now = {"bigon": {"metrics": {m: {"value": 1.0, "unit": u} for m, u in run.END_TO_END.items()}}}
            lines = []
            run.print_comparison(str(earlier), now, log=lines.append)
        self.assertEqual(len(lines), len(run.END_TO_END))
        self.assertTrue(all(line.endswith("= 0.500") for line in lines))

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "bigon", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
