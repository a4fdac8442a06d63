"""Command line behavior: payload shapes, determinism, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qskein import cli, suites
from qskein.quantum_torus import once_punctured_torus


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_surface_bigon(capsys):
    code, out, err = run_cli(
        capsys,
        ["dims", "surface", "--genus", "0", "--punctures", "0",
         "--boundary", "2", "--N", "3"],
    )
    assert code == 0
    assert json.loads(out) == {"r": 1, "K": 27, "lambda_lower": 27, "lambda_upper": 40}


def test_dims_manifold(capsys):
    code, out, err = run_cli(
        capsys, ["dims", "manifold", "--genus", "2", "--markings", "0", "--N", "3"]
    )
    assert code == 0
    assert json.loads(out) == {"bound": 27}


def test_dims_even_order_rejected(capsys):
    code, out, err = run_cli(
        capsys,
        ["dims", "surface", "--genus", "0", "--punctures", "0",
         "--boundary", "2", "--N", "4"],
    )
    assert code == 2
    assert "error" in err


def test_dims_closed_torus_rejected(capsys):
    code, out, err = run_cli(
        capsys,
        ["dims", "surface", "--genus", "1", "--punctures", "0",
         "--boundary", "0", "--N", "3"],
    )
    assert code == 2


@pytest.mark.parametrize("genus", [14, 10**9])
def test_dims_oversized_count_refused(capsys, genus):
    # genus 14 gives 3^16383 (over 4300 digits); 10^9 would never finish
    code, out, err = run_cli(
        capsys,
        ["dims", "manifold", "--genus", str(genus), "--markings", "0", "--N", "3"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_counts_report_shape(capsys):
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "counts"
    assert report["N"] == 5
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert report["summary"] == {"pass": len(ids), "fail": 0, "error": 0}
    for check in report["checks"]:
        assert check["status"] == "pass"
        assert isinstance(check["elapsed_ms"], float)


def _strip_timing(text):
    report = json.loads(text)
    for check in report["checks"]:
        del check["elapsed_ms"]
    return json.dumps(report)


def test_verify_deterministic_given_seed(capsys):
    argv = ["verify", "chebyshev", "--N", "3", "--seed", "11", "--trials", "8"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert _strip_timing(first) == _strip_timing(second)


def test_verify_seed_changes_details(capsys):
    argv = ["verify", "bigon", "--N", "3", "--trials", "5", "--max-exp", "2"]
    _, first, _ = run_cli(capsys, argv + ["--seed", "1"])
    _, second, _ = run_cli(capsys, argv + ["--seed", "2"])
    # same shape, same statuses; the runs are distinct but both green
    assert json.loads(first)["summary"] == json.loads(second)["summary"]


def test_verify_threaded_matches_sequential(capsys, monkeypatch):
    argv = ["verify", "torus-skein", "--N", "3", "--kmax", "3", "--trials", "5",
            "--seed", "4"]
    _, seq, _ = run_cli(capsys, argv)
    monkeypatch.setenv("SKEIN_VERIFY_THREADS", "4")
    _, par, _ = run_cli(capsys, argv)
    assert _strip_timing(seq) == _strip_timing(par)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_verify_bad_thread_setting_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("SKEIN_VERIFY_THREADS", value)
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: SKEIN_VERIFY_THREADS")


def test_verify_even_order_rejected(capsys):
    code, out, err = run_cli(capsys, ["verify", "bigon", "--N", "4"])
    assert code == 2
    assert "error" in err


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_missing_triangulation_file(capsys):
    code, out, err = run_cli(
        capsys, ["verify", "qtorus", "--N", "3", "--triangulation", "/nope.json"]
    )
    assert code == 2


def test_verify_triangulation_from_file(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(once_punctured_torus().to_json())
    code, out, err = run_cli(
        capsys,
        ["verify", "qtorus", "--N", "3", "--trials", "5",
         "--triangulation", str(path), "--seed", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert any("input" in c["id"] for c in report["checks"])


def test_verify_inconsistent_fans_rejected(tmp_path, capsys):
    # edge counts are right, but the fan pairs are not the triangle corners
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"edges": 3, "triangles": [[0, 1, 2], [0, 1, 2]],
         "fans": {"v0": [0, 0, 1, 1, 2, 2]}}
    ))
    code, out, err = run_cli(
        capsys, ["verify", "qtorus", "--N", "3", "--triangulation", str(path)]
    )
    assert code == 2
    assert out == ""
    assert "fan" in err


def test_readme_triangulation_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("### Triangulation files"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    code, out, err = run_cli(
        capsys,
        ["verify", "qtorus", "--N", "3", "--trials", "5", "--triangulation", str(path)],
    )
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_failing_check_sets_exit_code(capsys, monkeypatch):
    def always_fails(order):
        def check(rng):
            raise suites.CheckFailure("forced for the exit-code test")
        return [("counts-forced-failure", check)]

    monkeypatch.setattr(suites, "counts_suite", always_fails)
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["fail"] == 1
    assert report["checks"][0]["detail"] == "forced for the exit-code test"


def test_error_in_check_reported(capsys, monkeypatch):
    def exploding(order):
        def check(rng):
            raise RuntimeError("boom")
        return [("counts-exploding", check)]

    monkeypatch.setattr(suites, "counts_suite", exploding)
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["error"] == 1
    assert "RuntimeError" in report["checks"][0]["detail"]


def test_pretty_flag_is_indented(capsys):
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "3", "--pretty"])
    assert code == 0
    assert out.startswith("{\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qskein", "dims", "manifold",
         "--genus", "0", "--markings", "0", "--N", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"bound": 1}
