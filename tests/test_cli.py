"""Command line behavior: payload shapes, determinism, exit codes."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qskein import chebyshev, cli, quantum_torus, suites
from qskein.chebyshev import Polynomial
from qskein.oq_sl2 import OqAlgebra
from qskein.quantum_torus import (
    exchange_matrix,
    four_punctured_sphere,
    once_punctured_torus,
)


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


def test_run_checks_independent_of_order():
    checks = suites.bigon_suite(3, 5, 2) + suites.qtorus_suite(3, 5)

    def untimed(results):
        return [(r.id, r.status, r.detail) for r in results]

    forward = suites.run_checks(checks, 7)
    backward = suites.run_checks(checks[::-1], 7)
    assert untimed(forward) == untimed(backward)
    assert all(r.status == "pass" for r in forward)


def test_verify_even_order_rejected(capsys):
    code, out, err = run_cli(capsys, ["verify", "bigon", "--N", "4"])
    assert code == 2
    assert "error" in err
    # an exponent cap below 1 is refused like --trials and --kmax
    code, out, err = run_cli(capsys, ["verify", "bigon", "--max-exp", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: --max-exp must be positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["counts", "--trials", "0"], "--trials must be positive"),
        (["chebyshev", "--kmax", "0"], "--kmax must be positive"),
        (["qtorus", "--max-exp", "0"], "--max-exp must be positive"),
        (["bigon", "--kmax", "-5"], "--kmax must be positive"),
        (["chebyshev", "--triangulation", "/nonexistent"], "only qtorus"),
        (["bigon", "--triangulation", ""], "only qtorus"),
        (["qtorus", "--triangulation", ""], "No such file or directory: ''"),
    ],
    ids=[
        "counts-trials", "chebyshev-kmax", "qtorus-max-exp", "bigon-kmax",
        "chebyshev-triangulation", "bigon-empty-triangulation",
        "qtorus-empty-triangulation",
    ],
)
def test_verify_refuses_bad_knobs_for_every_suite(capsys, argv, message):
    """Every suite refuses a knob below 1, whether or not it reads it, and
    every suite but qtorus refuses --triangulation, without opening the file.
    An empty path names no file, so it is refused, not read as no path."""
    code, out, err = run_cli(capsys, ["verify", argv[0], "--N", "3", *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "counts", "--N", "-3"],
        ["verify", "bigon", "--N", "-3"],
        ["dims", "surface", "--genus", "0", "--punctures", "0", "--boundary", "2", "--N", "-3"],
        ["dims", "manifold", "--genus", "1", "--markings", "0", "--N", "-3"],
        ["verify", "counts", "--N", "4"],
        ["verify", "bigon", "--N", "4"],
        ["dims", "surface", "--genus", "0", "--punctures", "0", "--boundary", "2", "--N", "4"],
    ],
    ids=["verify-counts", "verify-bigon", "dims-surface", "dims-manifold",
         "verify-counts-even", "verify-bigon-even", "dims-surface-even"],
)
def test_negative_odd_order_refused_by_value(capsys, argv):
    """-3 is odd, so the refusal must say positive too, and name the value;
    verify and dims refuse a bad N in the same words, those of linear.odd_order."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: order must be odd and positive, got {argv[-1]}\n"


@pytest.mark.parametrize("suite", ["bigon", "qtorus", "torus-skein", "chebyshev"])
def test_order_one_refused_by_every_suite_but_counts(capsys, suite):
    code, out, err = run_cli(capsys, ["verify", suite, "--N", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: N must be an odd number >= 3 for this suite\n"


def test_counts_runs_at_order_one(capsys):
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "1"])
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 2, "fail": 0, "error": 0}


def test_suite_knobs_are_verify_options():
    for suite, knobs in suites.SUITES.items():
        args = vars(cli._build_parser().parse_args(["verify", suite]))
        assert set(knobs) <= set(args), suite


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
    torus = {"edges": 3, "triangles": [[0, 1, 2], [0, 1, 2]],
             "fans": {"v0": [0, 1, 2, 0, 1, 2]}}
    changes = [
        # edge counts are right, but the fan pairs are not the triangle corners
        ({"fans": {"v0": [0, 0, 1, 1, 2, 2]}}, "fan"),
        ({"fans": {"v0": [0, 1, 2, 0, 1, 2], "v1": []}}, "empty"),
        ({"edges": 3.7}, "integer"),
        # refused before any per-edge list is allocated
        ({"edges": 10**12}, "edge count"),
        # consistent fans, but V - E + F = 2 - 3 + 2 = 1 is odd
        ({"fans": {"v0": [0, 1, 2], "v1": [0, 1, 2]}}, "Euler characteristic 1"),
    ]
    cases = [(json.dumps({**torus, **change}), phrase) for change, phrase in changes]
    # nested too deeply for the JSON decoder; json.dumps cannot build it
    nested = '{"edges": 3, "triangles": ' + "[" * 5000 + "]" * 5000 + ', "fans": {}}'
    cases.append((nested, "malformed"))
    # not JSON at all: the decoder's message alone would not say which input
    cases.append(("not json", "malformed triangulation data: Expecting value"))
    path = tmp_path / "bad.json"
    for text, phrase in cases:
        path.write_text(text)
        code, out, err = run_cli(
            capsys, ["verify", "qtorus", "--N", "3", "--triangulation", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert phrase in err


def test_verify_repeated_fan_key_rejected(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(four_punctured_sphere().to_json().replace('"v1"', '"v0"'))
    code, out, err = run_cli(
        capsys, ["verify", "qtorus", "--N", "3", "--triangulation", str(path)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path}: puncture 'v0' has two fans\n"


def test_verify_repeated_top_level_key_rejected(tmp_path, capsys):
    path = tmp_path / "edges.json"
    text = four_punctured_sphere().to_json()
    path.write_text(text.replace('"edges": 6', '"edges": 99, "edges": 6'))
    code, out, err = run_cli(
        capsys, ["verify", "qtorus", "--N", "3", "--triangulation", str(path)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed triangulation data: key 'edges' appears twice\n"


def test_verify_unknown_top_level_key_rejected(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(once_punctured_torus().to_json()[:-1] + ', "fan": {"v0": [0, 1, 2]}}')
    code, out, err = run_cli(
        capsys, ["verify", "qtorus", "--N", "3", "--triangulation", str(path)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed triangulation data: unknown key 'fan'\n"


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


def run_check(checks, check_id):
    [result] = suites.run_checks([c for c in checks if c[0] == check_id], 0)
    return result


@pytest.mark.parametrize(
    "entry,detail",
    [((1, 2), "not antisymmetric at (0, 1)"), ((3, -3), "entry (0, 1) is out of range")],
)
def test_bad_exchange_matrix_entry_named(monkeypatch, entry, detail):
    def skewed(tri):
        sigma = [list(row) for row in exchange_matrix(tri)]
        sigma[0][1], sigma[1][0] = entry
        return sigma

    # built first: the torus itself is made from the real matrix
    checks = suites.qtorus_suite(3, 1)
    monkeypatch.setattr(quantum_torus, "exchange_matrix", skewed)
    result = run_check(checks, "qtorus-once-punctured-torus-exchange-matrix")
    assert result.status == "fail"
    assert result.detail == detail


def test_refused_center_free_certificate_names_the_field(monkeypatch):
    real = quantum_torus.center_free_certificate

    def collided(*args, **kwargs):
        cert = real(*args, **kwargs)
        return cert._replace(certified=False, distinct=False)

    monkeypatch.setattr("qskein.suites.qtorus.center_free_certificate", collided)
    result = run_check(
        suites.qtorus_suite(3, 1), "qtorus-once-punctured-torus-center-free"
    )
    assert result.status == "fail"
    assert result.detail == "certificate refused: distinct false"


def test_qtorus_builds_each_puncture_basis_once(monkeypatch):
    real = quantum_torus.balanced_puncture_basis
    built = []

    def counted(tri):
        built.append(tri)
        return real(tri)

    monkeypatch.setattr("qskein.suites.qtorus.balanced_puncture_basis", counted)
    results = suites.run_checks(suites.qtorus_suite(3, 2), 0)
    assert {r.status for r in results} == {"pass"}
    assert built == [once_punctured_torus(), four_punctured_sphere()]


def test_failed_puncture_basis_is_each_checks_error(capsys, monkeypatch):
    def refused(tri):
        raise ValueError("no basis")

    monkeypatch.setattr("qskein.suites.qtorus.balanced_puncture_basis", refused)
    code, out, err = run_cli(capsys, ["verify", "qtorus", "--N", "3", "--trials", "2"])
    assert code == 1
    errors = [c["id"] for c in json.loads(out)["checks"] if c["status"] == "error"]
    assert errors == [
        "qtorus-four-punctured-sphere-degree-additive",
        "qtorus-four-punctured-sphere-puncture-basis",
        "qtorus-once-punctured-torus-center-free",
        "qtorus-once-punctured-torus-degree-additive",
        "qtorus-once-punctured-torus-puncture-basis",
    ]


def test_refused_independence_certificate_names_the_field(monkeypatch):
    real = OqAlgebra.independence_certificate

    def vanished(self, coeff_map):
        cert = real(self, coeff_map)
        return cert._replace(certified=False, combination_nonzero=False)

    monkeypatch.setattr(OqAlgebra, "independence_certificate", vanished)
    result = run_check(suites.bigon_suite(3, 1, 1), "bigon-independence-certificates")
    assert result.status == "fail"
    assert result.detail.startswith("certificate refused on keys [")
    assert result.detail.endswith("]: combination_nonzero false")


def test_false_degree_formula_reported_as_fail(monkeypatch):
    real = OqAlgebra.power_product

    def skewed(self, k):
        # a lex-larger stray term moves the expansion's degree off the formula
        out = real(self, k)
        if tuple(k) == (1, 0, 1, 0):
            out = out + self.basis_monomial((5, 0, 0, 0))
        return out

    monkeypatch.setattr(OqAlgebra, "power_product", skewed)
    result = run_check(suites.bigon_suite(3, 1, 1), "bigon-degree-formula-vs-oracle")
    assert result.status == "fail"
    assert result.detail == "degree mismatch at (1, 0, 1, 0)"


def test_failed_round_trip_names_the_trial(monkeypatch):
    real = chebyshev.chebyshev_reduce

    def off_by_one(p, order):
        # reduces p + 1 instead of p, so no round trip can succeed
        return real(p + Polynomial({0: 1}), order)

    monkeypatch.setattr("qskein.suites.chebyshev.chebyshev_reduce", off_by_one)
    result = run_check(suites.chebyshev_suite(3, 5), "chebyshev-reduce-round-trip")
    assert result.status == "fail"
    assert result.detail.endswith("at trial 0")


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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_module(*argv, **kwargs):
    """Run ``python -m qskein`` on the package under test, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "qskein", *argv],
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bigon", "--N", "7"),
        ("dims", "manifold", "--genus", "2", "--markings", "0", "--N", "3", "--pretty"),
    ],
    ids=["verify", "dims"],
)
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(argv):
    """A reader that has gone (``| head``, ``| true``) is no failed check."""
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_module(*argv, stdout=write, timeout=60)
    finally:
        os.close(write)
    assert result.returncode == 0
    assert result.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--N", "3001"),
        ("bigon", "--N", "1001"),
        ("qtorus", "--N", "1001"),
        ("torus-skein", "--N", "999"),
        ("bigon", "--max-exp", "13"),
    ],
)
def test_verify_oversized_work_refused(argv):
    # a 1 GiB address-space cap and a timeout make a broken guard fail fast
    start = time.perf_counter()
    proc = run_module("verify", *argv, preexec_fn=_cap_address_space, timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "exceeds" in proc.stderr
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--N", "201"),
        ("bigon", "--N", "101"),
        ("qtorus", "--N", "101"),
        ("chebyshev", "--N", "51"),
        ("torus-skein", "--N", "101"),
        ("qtorus", "--N", "151"),
        ("bigon", "--N", "21", "--max-exp", "12"),
    ],
)
def test_verify_large_baseline_sizes_accepted(argv):
    # builds each suite's checks without running them
    args = cli._build_parser().parse_args(["verify", *argv])
    assert cli._load_suite(args)


def test_pretty_flag_is_indented(capsys):
    code, out, err = run_cli(capsys, ["verify", "counts", "--N", "3", "--pretty"])
    assert code == 0
    assert out.startswith("{\n")


def test_module_entry_point():
    proc = run_module("dims", "manifold", "--genus", "0", "--markings", "0", "--N", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"bound": 1}


# SHA-256 over every golden command's exit code and report without elapsed_ms.
# A change meant to keep reports byte-identical must keep it; one that alters
# a report on purpose updates it and says why.
GOLDEN_REPORTS_SHA256 = "02a5f158ecdca3a60e8ba6ad7ccba267a3bc51204bb9ed2c72bc432345ae7d54"


def test_golden_reports(capsys):
    digest = hashlib.sha256()
    for suite in suites.SUITES:
        for order in ("3", "7", "11", "21"):
            for seed in ("0", "1"):
                argv = ["verify", suite, "--N", order, "--seed", seed]
                code, out, _ = run_cli(capsys, argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{_strip_timing(out)}\n".encode())
    assert digest.hexdigest() == GOLDEN_REPORTS_SHA256
