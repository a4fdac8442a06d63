"""Chebyshev-style recurrences and the power-basis reduction."""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qskein import chebyshev
from qskein.chebyshev import (
    ChebyshevForm,
    Polynomial,
    chebyshev_a,
    chebyshev_reduce,
    chebyshev_s,
    chebyshev_t,
)
from qskein.torus_skein import a_basis_build, a_basis_expand

SRC = str(Path(chebyshev.__file__).resolve().parents[1])


def test_seed_values():
    assert chebyshev_t(0) == Polynomial.constant(2)
    assert chebyshev_t(1) == Polynomial.x()
    assert chebyshev_s(0) == Polynomial.constant(1)
    assert chebyshev_s(1) == Polynomial.x()


def test_small_members():
    x = Polynomial.x()
    assert chebyshev_t(2) == x * x - 2
    assert chebyshev_t(3) == x ** 3 - x * 3
    assert chebyshev_s(2) == x * x - 1
    assert chebyshev_s(3) == x ** 3 - x * 2
    assert chebyshev_a(1) == x
    assert chebyshev_a(2) == x * x - 1
    assert chebyshev_a(3) == x ** 3 - x
    assert chebyshev_a(4) == x ** 4 - x * x * 2


def test_recurrences_hold():
    x = Polynomial.x()
    for n in range(2, 16):
        assert chebyshev_t(n) == x * chebyshev_t(n - 1) - chebyshev_t(n - 2)
        assert chebyshev_s(n) == x * chebyshev_s(n - 1) - chebyshev_s(n - 2)
    for n in range(3, 60):
        assert chebyshev_a(n) == chebyshev_s(n) + chebyshev_a(n - 2)


def test_a_family_three_term_rule():
    """A_n - x*A_(n-1) + A_(n-2) is x for odd n and -1 for even n >= 3."""
    x = Polynomial.x()
    assert x * chebyshev_a(2) - chebyshev_a(1) == x ** 3 - x * 2 != chebyshev_a(3)
    for n in range(3, 60):
        defect = chebyshev_a(n) - x * chebyshev_a(n - 1) + chebyshev_a(n - 2)
        assert defect == (x if n % 2 else Polynomial.constant(-1)), n


def test_t_and_s_match_closed_forms():
    """T_n = sum_k (-1)^k n/(n-k) C(n-k, k) x^(n-2k) and S_n = sum_k (-1)^k C(n-k, k) x^(n-2k)."""
    assert chebyshev_t(0).terms == {0: 2}
    for n in range(1, 201):
        ks = range(n // 2 + 1)
        t_want = {n - 2 * k: (-1) ** k * n * comb(n - k, k) // (n - k) for k in ks}
        s_want = {n - 2 * k: (-1) ** k * comb(n - k, k) for k in ks}
        assert chebyshev_t(n).terms == t_want, n
        assert chebyshev_s(n).terms == s_want, n
    assert chebyshev_s(0).terms == {0: 1}


def test_t_is_s_difference():
    for n in range(2, 13):
        assert chebyshev_t(n) == chebyshev_s(n) - chebyshev_s(n - 2)


def test_a_family_monic_unitriangular():
    for n in range(1, 21):
        a = chebyshev_a(n)
        assert a.degree() == n
        assert a.leading_coefficient() == 1


def test_a_family_rejects_zero():
    with pytest.raises(ValueError):
        chebyshev_a(0)


def test_composition_multiplicativity():
    for m in range(1, 7):
        for n in range(1, 7):
            assert chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n)


def test_composition_identity_and_pins():
    p = Polynomial({3: Fraction(2), 1: Fraction(-1), 0: Fraction(7)})
    assert p.compose(Polynomial.x()) == p
    assert chebyshev_t(2).compose(chebyshev_t(3)) == chebyshev_t(6)
    assert chebyshev_t(3).compose(chebyshev_t(5)) == chebyshev_t(15)


def test_top_coefficient_of_t_is_one():
    for n in range(1, 12):
        assert chebyshev_t(n).leading_coefficient() == 1


def test_polynomial_basics():
    p = Polynomial({2: Fraction(1), 0: Fraction(-1)})
    assert p.coefficient(2) == 1
    assert p.coefficient(5) == 0
    assert (p - p).is_zero()
    with pytest.raises(ValueError):
        (p - p).degree()
    q = p * p
    assert q.degree() == 4
    assert q.coefficient(2) == -2


def test_reduce_cubic_pin():
    """x^3 at order 3 splits as T_3 plus 3x."""
    form = chebyshev_reduce(Polynomial({3: Fraction(1)}), 3)
    assert form.columns[0] == Polynomial({1: Fraction(1)})
    assert form.columns[1] == Polynomial.constant(3)
    assert form.columns[2].is_zero()
    assert form.substitute() == Polynomial({3: Fraction(1)})


def test_reduce_below_order_is_identity_column():
    form = chebyshev_reduce(Polynomial({2: Fraction(1)}), 3)
    assert form.columns[2] == Polynomial.constant(1)
    assert form.columns[0].is_zero() and form.columns[1].is_zero()


def test_reduce_round_trip_random():
    rng = random.Random(407)
    for order in (3, 5):
        for _ in range(40):
            coeffs = {}
            for d in range(rng.randint(0, 5 * order) + 1):
                if rng.random() < 0.5:
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    if c:
                        coeffs[d] = c
            p = Polynomial(coeffs)
            form = chebyshev_reduce(p, order)
            assert len(form.columns) == order
            assert form.substitute() == p


def test_reduce_columns_only_low_x_degrees():
    form = chebyshev_reduce(Polynomial({11: Fraction(1), 7: Fraction(3)}), 3)
    # every stored column index is an x-exponent below the order
    assert len(form.columns) == 3
    assert form.substitute() == Polynomial({11: Fraction(1), 7: Fraction(3)})


# Runs in a fresh interpreter, whose tables hold only their seed rows.
_COLD_PROBE = """
import inspect, sys
from qskein import chebyshev, suites
from qskein.chebyshev import Polynomial, chebyshev_a, chebyshev_s, chebyshev_t
seeds = (chebyshev._T_ROWS, chebyshev._S_ROWS, chebyshev._A_ROWS)
suites.chebyshev_suite(21, 5)
suites.torus_skein_suite(21, 40, 5)
assert [len(rows) for rows in seeds] == [2, 2, 2], "tables grew before any check ran"
sys.setrecursionlimit(len(inspect.stack(0)) + 20)
built = [family(1200) for family in (chebyshev_t, chebyshev_s, chebyshev_a)]
sys.setrecursionlimit(1000)
assert [p.degree() for p in built] == [1200] * 3
x = Polynomial.x()
assert chebyshev_t(1200) == x * chebyshev_t(1199) - chebyshev_t(1198)
assert chebyshev_a(1200) == chebyshev_s(1200) + chebyshev_a(1198)
"""


def test_cold_families_need_no_deep_recursion():
    """Suite construction grows no table, and cold tables grow without recursion.

    1200 is past every index the tests and the CI commands reach (840).
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("interleaved", [False, True], ids=["T", "A"])
def test_concurrent_growth_stores_the_right_rows(interleaved):
    """Threads growing one fresh table at once store the rows grown alone."""
    table = chebyshev._A_ROWS if interleaved else chebyshev._T_ROWS
    first, top, workers = int(interleaved), 240, 4
    chebyshev._row(table, top, interleaved)
    want = {n: table[n] for n in range(first, top + 1)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            rows = {n: want[n] for n in (first, first + 1)}
            barrier = threading.Barrier(workers)

            def grow(start):
                barrier.wait()
                for n in range(start, top + 1, workers):
                    chebyshev._row(rows, n, interleaved)

            threads = [threading.Thread(target=grow, args=(first + w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert rows == want
    finally:
        sys.setswitchinterval(interval)


def test_table_rows_survive_their_readers():
    """Reduce, substitute, compose and the A-basis read the tables and change nothing."""
    order = 7
    t_want = {
        order - 2 * k: (-1) ** k * order * comb(order - k, k) // (order - k)
        for k in range(order // 2 + 1)
    }
    t_n, row = chebyshev_t(order), chebyshev._T_ROWS[order]
    assert t_n.terms == t_want
    a_before = {i: chebyshev._A_ROWS[i] for i in range(1, 41)}
    rng = random.Random(5)
    for _ in range(10):
        p = _random_sparse_polynomial(rng, 5 * order)
        assert chebyshev_reduce(p, order).substitute() == p
        p.compose(t_n)
        t_n.compose(p)
        constant, coeffs = a_basis_expand(p * Fraction(1, 3))
        a_basis_build(constant, coeffs)
    for i in (order, 5 * order, 40):
        a_basis_expand(chebyshev_a(i))
        a_basis_expand(chebyshev_t(i))
    assert chebyshev_t(order) is t_n and t_n.terms == t_want
    assert chebyshev._T_ROWS[order] == row == tuple(t_want[e] for e in sorted(t_want))
    assert {i: chebyshev._A_ROWS[i] for i in range(1, 41)} == a_before


def _random_rational_polynomial(rng, degree):
    return Polynomial(
        {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for d in range(degree + 1)}
    )


def test_horner_matches_defining_sums():
    rng = random.Random(1117)
    for _ in range(30):
        p = _random_rational_polynomial(rng, rng.randint(0, 6))
        inner = _random_rational_polynomial(rng, rng.randint(0, 4))
        want = Polynomial()
        for e, v in p.terms.items():
            want = want + inner**e * v
        assert p.compose(inner) == want
    for order in (3, 5):
        t_n = chebyshev_t(order)
        for _ in range(20):
            columns = tuple(
                _random_rational_polynomial(rng, rng.randint(0, 3))
                for _ in range(order)
            )
            want = Polynomial()
            for j, col in enumerate(columns):
                for k, v in col.terms.items():
                    want = want + t_n**k * Polynomial({j: v})
            assert ChebyshevForm(order, columns).substitute() == want


def test_integral_coefficients_are_ints():
    form = chebyshev_reduce(Polynomial({40: 1}), 7)
    polys = (chebyshev_t(30), chebyshev_a(30), *form.columns)
    coeffs = [v for p in polys for v in p.terms.values()]
    constant, expansion = a_basis_expand(Polynomial({d: d - 7 for d in range(15)}))
    coeffs += [constant, *expansion.values()]
    assert len(coeffs) > 40 and all(type(v) is int for v in coeffs)
    p = Polynomial({0: Fraction(4, 2), 1: Fraction(1, 3)})
    assert type(p.terms[0]) is int and p.terms[1] == Fraction(1, 3)
    assert p * 3 == Polynomial({0: 6, 1: 1}) and (p * 3).terms[1] == 1


def _random_sparse_polynomial(rng, degree):
    """Random coefficients, ints and Fractions, with gaps of every parity."""
    terms = {}
    for d in range(degree + 1):
        roll = rng.random()
        if roll < 0.3:
            terms[d] = rng.randint(-9, 9)
        elif roll < 0.6:
            terms[d] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(terms)


def test_product_matches_term_by_term_sum():
    rng = random.Random(2213)
    for _ in range(60):
        p = _random_sparse_polynomial(rng, rng.randint(-1, 12))
        q = _random_sparse_polynomial(rng, rng.randint(-1, 12))
        want = Polynomial()
        for e1, v1 in p.terms.items():
            for e2, v2 in q.terms.items():
                want = want + Polynomial({e1 + e2: v1 * v2})
        assert p * q == want == q * p
        assert all(v for v in (p * q).terms.values())


ZERO = Polynomial()


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_reduce_zero_and_constants(order):
    form = chebyshev_reduce(ZERO, order)
    assert form == (order, (ZERO,) * order)
    assert form.substitute() == ZERO
    for c in (7, Fraction(-2, 3)):
        form = chebyshev_reduce(Polynomial.constant(c), order)
        assert form.columns[0] == Polynomial.constant(c)
        assert all(col == ZERO for col in form.columns[1:])
        assert form.substitute() == Polynomial.constant(c)


def test_reduce_at_order_one_is_the_identity():
    """T_1 = x, so p = p(T_1) is its own single column."""
    rng = random.Random(31)
    for _ in range(20):
        p = _random_sparse_polynomial(rng, rng.randint(0, 15))
        form = chebyshev_reduce(p, 1)
        assert form.columns == (p,)
        assert form.substitute() == p


def test_reduce_below_order_gives_constant_columns():
    p = Polynomial({0: Fraction(1, 2), 3: -4, 5: Fraction(7, 3)})
    form = chebyshev_reduce(p, 7)
    assert form.columns == tuple(Polynomial.constant(p.coefficient(j)) for j in range(7))
    assert form.substitute() == p


def test_reduce_fraction_coefficients_cancel_to_zero_columns():
    """x*T_3/2 + 3x^2/2: the division leaves Fraction zeros, and column 0 is empty."""
    p = chebyshev_t(3) * Polynomial({1: Fraction(1, 2)}) + Polynomial({2: Fraction(3, 2)})
    form = chebyshev_reduce(p, 3)
    assert form.columns[0] == ZERO
    assert form.columns[1] == Polynomial({1: Fraction(1, 2)})
    assert form.columns[2] == Polynomial.constant(Fraction(3, 2))
    assert form.substitute() == p


def test_substitute_edge_forms():
    assert ChebyshevForm(3, (ZERO, ZERO, ZERO)).substitute() == ZERO
    assert ChebyshevForm(1, (Polynomial.x(),)).substitute() == Polynomial.x()
    form = ChebyshevForm(2, (Polynomial({2: Fraction(1, 3)}), Polynomial.constant(5)))
    t2 = chebyshev_t(2)
    assert form.substitute() == t2 * t2 * Fraction(1, 3) + Polynomial({1: 5})


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ((2, (1,)), TypeError, "expected a Polynomial, got int 1"),
        ((2.0, (Polynomial.x(), Polynomial.x())), TypeError, "expected an integer, got 2.0"),
        ((True, (Polynomial.x(),)), TypeError, "expected an integer, got True"),
        ((0, ()), ValueError, "order must be positive"),
        ((3, (Polynomial.x(),) * 5), ValueError, "order 3 needs 3 columns, got 5"),
    ],
    ids=["int-column", "float-order", "bool-order", "zero-order", "column-count"],
)
def test_chebyshev_form_checks_its_fields(fields, error, message):
    """The order follows ``linear.integer`` and is positive, every column is a
    ``Polynomial`` and there is one per power of x below x**order."""
    with pytest.raises(error, match=f"^{message}$"):
        ChebyshevForm(*fields)


@pytest.mark.parametrize("inner", [3, Fraction(1, 2)], ids=["int", "fraction"])
def test_compose_refuses_a_non_polynomial(inner):
    """A constant is composed as Polynomial.constant(c), never as a bare number."""
    with pytest.raises(TypeError, match=f"^expected a Polynomial, got {type(inner).__name__} "):
        Polynomial({1: 1}).compose(inner)


def test_compose_edge_cases():
    p = Polynomial({0: 3, 2: Fraction(1, 2), 5: -1})
    assert ZERO.compose(p) == ZERO
    assert p.compose(ZERO) == Polynomial.constant(3)
    assert Polynomial.constant(Fraction(4, 5)).compose(p) == Polynomial.constant(Fraction(4, 5))
    assert p.compose(Polynomial.constant(2)) == Polynomial.constant(3 + 2 - 32)
    assert p.compose(Polynomial({1: Fraction(1, 2)})) == Polynomial(
        {0: 3, 2: Fraction(1, 8), 5: Fraction(-1, 32)}
    )
    # (x^2 - x)(1) = 0: the rows cancel inside Horner's rule
    assert Polynomial({2: 1, 1: -1}).compose(Polynomial({0: 1})) == ZERO


def test_polynomial_repr_and_hash():
    assert [repr(p) for p in (
        Polynomial({}), Polynomial.constant(3), Polynomial.constant(Fraction(-1, 2)),
        Polynomial.x(), Polynomial({0: Fraction(-1, 2), 1: 1, 2: Fraction(3, 4), 3: -2}),
        Polynomial({1: -1, 4: 1}),
    )] == ["0", "3", "-1/2", "x", "-2*x^3 + 3/4*x^2 + x + -1/2", "x^4 + -1*x"]
    p = Polynomial({1: 2, 0: 1})
    same = Polynomial({0: Fraction(2, 2), 1: Fraction(4, 2)})
    assert hash(p) == hash(same)
    assert len({p, same, Polynomial.x()}) == 2


@pytest.mark.parametrize("value", [0.5, "1/2", True], ids=["float", "string", "bool"])
def test_polynomial_refuses_inexact_coefficients(value):
    with pytest.raises(TypeError, match="expected"):
        Polynomial({1: value})


@pytest.mark.parametrize("exponent", [2.0, True], ids=["float", "bool"])
def test_polynomial_refuses_non_integer_exponents(exponent):
    with pytest.raises(TypeError, match="expected an integer"):
        Polynomial({exponent: 1})


@pytest.mark.parametrize("order", [True, 3.0], ids=["bool", "float"])
def test_reduce_order_follows_the_integer_rule(order):
    with pytest.raises(TypeError, match="expected an integer, got"):
        chebyshev_reduce(Polynomial({4: 1}), order)


def test_reduce_order_is_positive():
    with pytest.raises(ValueError, match="^order must be positive$"):
        chebyshev_reduce(Polynomial.x(), 0)


@pytest.mark.parametrize("family, n", [(chebyshev_t, -1), (chebyshev_s, -2)], ids=["T", "S"])
def test_family_index_is_natural(family, n):
    with pytest.raises(ValueError, match="^index must be a natural number$"):
        family(n)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_polynomial_power_follows_the_integer_rule(n):
    """x ** True is not x: the exponent is read by ``linear.integer``."""
    x = Polynomial.x()
    assert x ** 2 == Polynomial({2: 1})
    with pytest.raises(TypeError, match="expected an integer, got"):
        x ** n


def test_polynomial_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="^negative exponent -2$"):
        Polynomial.x() ** -2


@pytest.mark.parametrize("n", [True, 2.0, "3"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("family", [chebyshev_t, chebyshev_s, chebyshev_a], ids=["T", "S", "A"])
def test_family_index_follows_the_integer_rule(family, n):
    """The families cache by type, so True cannot reach 1's cache entry."""
    assert family(1) == Polynomial.x()
    with pytest.raises(TypeError, match="expected an integer, got"):
        family(n)
    assert family.cache_parameters()["typed"]
