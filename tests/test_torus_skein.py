"""Solid torus and S^1 x S^2 modules and the reduced Frobenius matrix."""

import random
from fractions import Fraction

import pytest

from qskein import torus_skein
from qskein.chebyshev import Polynomial, chebyshev_a, chebyshev_t
from qskein.torus_skein import (
    S1S2Element,
    a_basis_build,
    a_basis_expand,
    s1s2_frobenius_matrix,
    s1s2_reduce,
)


def test_a_expand_pins():
    c, coeffs = a_basis_expand(Polynomial({1: Fraction(1)}))
    assert c == 0 and coeffs == {1: Fraction(1)}
    c, coeffs = a_basis_expand(Polynomial({2: Fraction(1)}))
    assert c == 1 and coeffs == {2: Fraction(1)}
    c, coeffs = a_basis_expand(chebyshev_t(3))
    assert c == 0 and coeffs == {3: Fraction(1), 1: Fraction(-2)}


def test_a_expand_round_trip_random():
    rng = random.Random(515)
    for _ in range(60):
        coeffs = {}
        for d in range(rng.randint(0, 20) + 1):
            if rng.random() < 0.5:
                v = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                if v:
                    coeffs[d] = v
        p = Polynomial(coeffs)
        constant, expansion = a_basis_expand(p)
        assert a_basis_build(constant, expansion) == p


def test_a_expand_edge_cases():
    assert a_basis_expand(Polynomial()) == (0, {})
    assert a_basis_build(0, {}) == Polynomial()
    for c in (5, Fraction(-3, 7)):
        assert a_basis_expand(Polynomial.constant(c)) == (c, {})
        assert a_basis_build(c, {}) == Polynomial.constant(c)
    # (1/2) x^2 - 1/2 = (1/2) A_2: the constant cancels to exactly 0
    constant, coeffs = a_basis_expand(Polynomial({2: Fraction(1, 2), 0: Fraction(-1, 2)}))
    assert type(constant) is int and constant == 0
    assert coeffs == {2: Fraction(1, 2)}
    # gaps below the degree: only odd A_i enter, none with a zero coefficient
    p = Polynomial({7: Fraction(2, 3), 0: 4})
    constant, coeffs = a_basis_expand(p)
    assert constant == 4 and coeffs[7] == Fraction(2, 3)
    assert set(coeffs) <= {7, 5, 3, 1} and all(coeffs.values())
    assert a_basis_build(constant, coeffs) == p


def test_a_expand_monic_members_and_what_follows_them():
    """A leading coefficient 1 subtracts the row itself; the rest must still be read."""
    x = Polynomial.x()
    for i in (1, 2, 9, 40):
        a_i = chebyshev_a(i)
        assert a_basis_expand(a_i) == (0, {i: 1})
        assert a_basis_expand(a_i + 5) == (5, {i: 1})
        assert a_basis_expand(a_i * Fraction(1, 3)) == (0, {i: Fraction(1, 3)})
    # x^2 = A_2 + 1 sits below A_9 in the other parity, and x^8 in the same one
    assert a_basis_expand(chebyshev_a(9) + x * x) == (1, {9: 1, 2: 1})
    p = chebyshev_a(9) + x**8 * 3 + Fraction(1, 2)
    constant, coeffs = a_basis_expand(p)
    assert coeffs[9] == 1 and coeffs[8] == 3
    assert a_basis_build(constant, coeffs) == p
    # arithmetic on Fractions leaves a Fraction equal to 1; it takes the monic
    # step too, which subtracts A_5's int terms, so what follows stays int
    p = Polynomial({5: Fraction(1, 2)}) * 2
    assert type(p.terms[5]) is Fraction
    constant, coeffs = a_basis_expand(p)
    assert coeffs[5] == 1 and len(coeffs) == 3
    assert type(coeffs[3]) is int and type(coeffs[1]) is int
    assert a_basis_build(constant, coeffs) == p


def test_s1s2_element_validation():
    S1S2Element(3, Fraction(1), ((1, Fraction(2)), (4, Fraction(-1))))
    with pytest.raises(ValueError):
        S1S2Element(3, Fraction(0), ((2, Fraction(1)),))  # 3 does not divide 4
    with pytest.raises(ValueError):
        S1S2Element(3, Fraction(0), ((1, Fraction(0)),))
    with pytest.raises(ValueError):
        S1S2Element(4, Fraction(0), ())
    with pytest.raises(ValueError):
        S1S2Element(3, Fraction(0), ((4, Fraction(1)), (1, Fraction(1))))


@pytest.mark.parametrize(
    "fields, message",
    [
        ((3, 1.5, ()), "expected an exact coefficient, got 1.5"),
        ((3, 0, ((1, 2.0),)), "expected an exact coefficient, got 2.0"),
        ((3, 0, ((1, True),)), "expected an exact coefficient, got True"),
        ((3, 0, ((True, 1),)), "expected an integer, got True"),
        ((3, 0, ((1.0, 1),)), "expected an integer, got 1.0"),
    ],
    ids=["float-empty", "float-e", "bool-e", "bool-index", "float-index"],
)
def test_s1s2_element_follows_the_input_rules(fields, message):
    """Indices follow ``linear.integer`` and coefficients ``Polynomial._coerce``."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        S1S2Element(*fields)


def test_reduce_pins():
    r = s1s2_reduce(Polynomial({2: Fraction(1)}), 3)
    assert r.empty_coeff == 1 and r.e_coeffs == ()
    r = s1s2_reduce(Polynomial({1: Fraction(1)}), 3)
    assert r.empty_coeff == 0 and r.e_coeffs == ((1, Fraction(1)),)


def test_kill_rule_sweep():
    for order in (3, 5):
        for i in range(1, 5 * order + 1):
            reduced = s1s2_reduce(chebyshev_a(i), order)
            if (i + 2) % order == 0:
                assert reduced.e_coeffs == ((i, Fraction(1)),)
                assert reduced.empty_coeff == 0
            else:
                assert reduced.is_zero()


@pytest.mark.parametrize("order", [3, 5])
def test_frobenius_images_reduce_to_diagonal(order):
    for k in range(1, 7):
        reduced = s1s2_reduce(chebyshev_t(k * order), order)
        assert reduced.empty_coeff == 0
        assert reduced.e_coeffs == ((k * order - 2, Fraction(-2)),)


def test_smallest_case_pinned():
    """The order 3, k=1 image: T_3 becomes -2 e_1."""
    reduced = s1s2_reduce(chebyshev_t(3), 3)
    assert reduced.empty_coeff == 0
    assert reduced.e_coeffs == ((1, Fraction(-2)),)


def test_torus_frobenius_is_composition():
    """The solid torus Frobenius map is p -> p(T_N): composition with T_N."""
    p = Polynomial({2: Fraction(1), 1: Fraction(-1)})
    t5 = chebyshev_t(5)
    assert p.compose(t5) == t5 * t5 - t5
    assert Polynomial.constant(1).compose(chebyshev_t(7)) == Polynomial.constant(1)
    assert chebyshev_t(4).compose(chebyshev_t(3)) == chebyshev_t(12)


@pytest.mark.parametrize("order,kmax", [(3, 1), (3, 3), (3, 6), (5, 2), (5, 6)])
def test_frobenius_matrix_diagonal(order, kmax):
    m = s1s2_frobenius_matrix(order, kmax)
    assert len(m) == kmax + 1
    for i in range(kmax + 1):
        for j in range(kmax + 1):
            if i == j:
                assert m[i][j] == (2 if i == 0 else -2)
            else:
                assert m[i][j] == 0
    assert all(type(x) is int for row in m for x in row)


def test_frobenius_matrix_refuses_a_singular_truncation(monkeypatch):
    monkeypatch.setattr(
        torus_skein, "s1s2_reduce", lambda p, order: S1S2Element(order, 0, ())
    )
    with pytest.raises(ArithmeticError, match="singular"):
        s1s2_frobenius_matrix(3, 2)


def test_frobenius_matrix_rejects_bad_orders():
    with pytest.raises(ValueError):
        s1s2_frobenius_matrix(4, 2)
    with pytest.raises(ValueError):
        s1s2_frobenius_matrix(3, 0)


@pytest.mark.parametrize("kmax", [True, 2.0], ids=["bool", "float"])
def test_frobenius_matrix_kmax_follows_the_integer_rule(kmax):
    with pytest.raises(TypeError, match="expected an integer, got"):
        s1s2_frobenius_matrix(3, kmax)


def test_coefficient_lookup():
    r = s1s2_reduce(chebyshev_t(6), 3)
    assert r.coefficient(4) == -2
    assert r.coefficient(1) == 0


@pytest.mark.parametrize("order", [5.0, True], ids=["float", "bool"])
def test_reduce_order_follows_the_integer_rule(order):
    with pytest.raises(TypeError, match="expected an integer, got"):
        s1s2_reduce(chebyshev_t(6), order)


@pytest.mark.parametrize(
    "order, message",
    [(4, "order must be odd and positive, got 4"), (0, "order must be odd and positive, got 0"),
     (1, "order must be at least 3, got 1")],
)
def test_reduce_refuses_bad_orders_before_reducing(order, message):
    with pytest.raises(ValueError, match=message):
        s1s2_reduce(chebyshev_t(6), order)
