"""Correctness checks that the benchmark computes apart from the program.

`report_problems` checks one `qskein verify` report against what its command
line implies: exit code 0, one `pass` per expected check id, and the counts
that some details state, each derived here from a closed form.
`program_problems` compares a few of the package's own functions with
independent constructions.  Every function returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

QTORUS_FIXTURES = {
    # label: (genus, punctures)
    "once-punctured-torus": (1, 1),
    "four-punctured-sphere": (0, 4),
}

CHECK_IDS = {
    "bigon": [
        "bigon-degree-formula-vs-oracle",
        "bigon-diagonal-tower-membership",
        "bigon-independence-certificates",
        "bigon-localized-re-expansion",
        "bigon-power-subalgebra-commutes",
        "bigon-spanning-count",
        "bigon-spanning-re-expansion",
        "bigon-word-vs-structured-product",
    ],
    "counts": ["counts-basis-box", "counts-spanning-formula"],
    "chebyshev": ["chebyshev-composition", "chebyshev-reduce-round-trip", "chebyshev-t-minus-s"],
    "torus-skein": [
        "torus-skein-a-basis-round-trip",
        "torus-skein-frobenius-diagonal",
        "torus-skein-frobenius-matrix-invertible",
        "torus-skein-kill-rule",
        "torus-skein-solid-torus-free-rank",
    ],
    "qtorus": [
        f"qtorus-{label}-{check}"
        for label, (_, punctures) in QTORUS_FIXTURES.items()
        for check in (
            "exchange-matrix",
            "puncture-monomials-central",
            "power-map-multiplicative",
            "degree-additive",
            "puncture-basis",
        )
        + (("center-free",) if punctures == 1 else ())
    ],
}


def spanning_count(n: int) -> int:
    """2N^3 - N(N+1)(2N+1)/6: the box plus its wing."""
    return 2 * n**3 - n * (n + 1) * (2 * n + 1) // 6


def expected_numbers(check_id: str, spec: dict) -> list[int]:
    """Integers that the detail of a passing check must state."""
    n, trials = spec["N"], spec["trials"]
    cap = max(1, spec["max_exp"])
    runs = max(20, trials // 4)
    table = {
        "bigon-degree-formula-vs-oracle": [(2 * cap + 1) * (cap + 1) ** 2],
        "bigon-diagonal-tower-membership": [min(10, 2 * n)],
        "bigon-independence-certificates": [trials],
        "bigon-localized-re-expansion": [runs],
        "bigon-spanning-count": [spanning_count(n)],
        "bigon-spanning-re-expansion": [runs],
        "bigon-word-vs-structured-product": [trials],
        "counts-basis-box": [n**3],
        "counts-spanning-formula": [spanning_count(n)],
        "chebyshev-reduce-round-trip": [trials, 5 * n],
        "torus-skein-a-basis-round-trip": [trials],
        "torus-skein-frobenius-diagonal": [spec["kmax"]],
        "torus-skein-frobenius-matrix-invertible": [spec["kmax"] + 1],
        "torus-skein-kill-rule": [5 * n],
        "torus-skein-solid-torus-free-rank": [3 * n],
    }
    for label, (genus, punctures) in QTORUS_FIXTURES.items():
        rank = 6 * genus + 3 * punctures - 6
        table[f"qtorus-{label}-exchange-matrix"] = [rank]
        table[f"qtorus-{label}-puncture-monomials-central"] = [punctures]
        table[f"qtorus-{label}-power-map-multiplicative"] = [trials]
        table[f"qtorus-{label}-degree-additive"] = [trials]
        table[f"qtorus-{label}-puncture-basis"] = [rank]
        table[f"qtorus-{label}-center-free"] = [n**punctures]
    return table.get(check_id, [])


def report_problems(rc: int, stdout: str, spec: dict) -> list[str]:
    """Problems with one verify report; `spec` holds suite, N, seed, trials, max_exp, kmax."""
    where = f"{spec['suite']} N={spec['N']} seed={spec['seed']}"
    if rc != 0:
        return [f"{where}: exit code {rc}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{where}: report is not JSON ({exc})"]
    problems = []
    for key in ("suite", "N", "seed"):
        if report.get(key) != spec[key]:
            problems.append(f"{where}: report {key} is {report.get(key)!r}")
    checks = report.get("checks", [])
    ids = [c.get("id") for c in checks]
    if ids != sorted(CHECK_IDS[spec["suite"]]):
        problems.append(f"{where}: check ids {ids} differ from the expected list")
    for check in checks:
        if check.get("status") != "pass":
            problems.append(f"{where}: {check.get('id')} is {check.get('status')}: {check.get('detail')}")
            continue
        stated = [int(x) for x in re.findall(r"-?\d+", check.get("detail", ""))]
        for want in expected_numbers(check["id"], spec):
            if want not in stated:
                problems.append(f"{where}: {check['id']} detail {check.get('detail')!r} lacks {want}")
    if report.get("summary") != {"pass": len(checks), "fail": 0, "error": 0}:
        problems.append(f"{where}: summary {report.get('summary')}")
    return problems


def without_timings(stdout: str):
    """A report with every elapsed_ms removed, for byte-level comparison."""
    report = json.loads(stdout)
    for check in report.get("checks", []):
        check.pop("elapsed_ms", None)
    return report


def same_report(a: str, b: str) -> bool:
    return without_timings(a) == without_timings(b)


# ---------------------------------------------------------------------------
# independent constructions compared with the package


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact division")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("inexact division")
    return out


def cyclotomic_by_mobius(n: int) -> list[int]:
    """Phi_n as prod_{d | n} (x^d - 1)^mu(n/d), low degree first."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _poly_mul(num, factor)
            elif mu == -1:
                den = _poly_mul(den, factor)
    return _poly_div_exact(num, den)


def chebyshev_t_closed_form(n: int) -> dict[int, Fraction]:
    """T_n = sum_k (-1)^k n/(n-k) C(n-k, k) x^(n-2k), with T_0 = 2."""
    if n == 0:
        return {0: Fraction(2)}
    return {
        n - 2 * k: Fraction((-1) ** k * n * comb(n - k, k), n - k)
        for k in range(n // 2 + 1)
    }


def _primes_dividing(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def program_problems(orders) -> list[str]:
    """Compare the package with the constructions above at each order N."""
    from qskein.chebyshev import chebyshev_t
    from qskein.dimensions import spanning_count_formula
    from qskein.scalars import ScalarRing, cyclotomic_coefficients

    problems = []
    for n in orders:
        if list(cyclotomic_coefficients(n)) != cyclotomic_by_mobius(n):
            problems.append(f"Phi_{n} differs from the Mobius product")
        ring = ScalarRing.root_of_unity(n)
        zeta = ring.zeta_pow(1)
        if zeta**n != ring.one or any(zeta ** (n // p) == ring.one for p in _primes_dividing(n)):
            problems.append(f"zeta_pow(1) does not have order exactly {n}")
        for m in range(5 * n + 1):
            if chebyshev_t(m).coefficients() != chebyshev_t_closed_form(m):
                problems.append(f"T_{m} differs from its closed form")
                break
        if spanning_count_formula(n) != spanning_count(n):
            problems.append(f"spanning_count_formula({n}) is not {spanning_count(n)}")
    return problems
