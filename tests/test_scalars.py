"""Exact scalar arithmetic in both coefficient modes."""

import random
from fractions import Fraction

import pytest

from qskein.scalars import ScalarRing, cyclotomic_coefficients


def test_cyclotomic_coefficients_small():
    assert cyclotomic_coefficients(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_coefficients(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_coefficients(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_coefficients(5) == tuple(Fraction(1) for _ in range(5))
    # degree phi(9) = 6 with support at 0, 3, 6
    c9 = cyclotomic_coefficients(9)
    assert len(c9) == 7
    assert c9 == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_degree_15():
    c15 = cyclotomic_coefficients(15)
    assert len(c15) == 9
    assert c15 == (1, -1, 0, 1, -1, 1, 0, -1, 1)


@pytest.mark.parametrize("order", [3, 5, 7, 9])
def test_zeta_has_exact_order(order):
    ring = ScalarRing.root_of_unity(order)
    assert ring.zeta_pow(order).is_one()
    for m in range(1, order):
        assert not ring.zeta_pow(m).is_one()


@pytest.mark.parametrize("order", [3, 5, 9])
def test_q_power_vanishing(order):
    """q = zeta^2 has the same multiplicative order because order is odd."""
    ring = ScalarRing.root_of_unity(order)
    for m in range(-2 * order, 2 * order + 1):
        assert ring.q_pow(m).is_one() == (m % order == 0)


def test_q_half_powers_cancel():
    ring = ScalarRing.root_of_unity(7)
    for m in range(-10, 11):
        assert (ring.zeta_pow(m) * ring.zeta_pow(-m)).is_one()


def test_root_mode_geometric_sum_vanishes():
    ring = ScalarRing.root_of_unity(5)
    total = ring.zero
    for m in range(5):
        total = total + ring.q_pow(m)
    assert total.is_zero()


def test_parameter_power_n_squared_is_one():
    """The parameter nu = mu^(N^2) collapses to 1 at an odd root."""
    for order in (3, 5, 7):
        ring = ScalarRing.root_of_unity(order)
        assert ring.zeta_pow(order * order).is_one()
        assert (ring.zeta_pow(1) ** (2 * order * order)).is_one()


@pytest.mark.parametrize("order", [5, 9, 15, 21])
def test_field_arithmetic_axioms_random(order):
    rng = random.Random(91)
    trials = 300 // order
    ring = ScalarRing.root_of_unity(order)

    def rand_scalar():
        s = ring.zero
        for m in range(order):
            if rng.random() < 0.5:
                s = s + ring.zeta_pow(m) * Fraction(rng.randint(-4, 4))
        return s

    for _ in range(trials):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert (x * x.inverse()).is_one()


def test_inverse_of_zeta():
    ring = ScalarRing.root_of_unity(3)
    assert ring.zeta_pow(1).inverse() == ring.zeta_pow(2)
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()


def test_division_and_negative_powers():
    ring = ScalarRing.root_of_unity(7)
    x = ring.zeta_pow(3) + ring.from_rational(2)
    assert (x / x).is_one()
    assert x ** -1 == x.inverse()
    assert x ** -3 == (x * x * x).inverse()
    assert (x ** 0).is_one()


def test_rational_coercion():
    ring = ScalarRing.root_of_unity(3)
    x = ring.zeta_pow(1)
    assert x + 0 == x
    assert x * 1 == x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert 2 * x - x == x


def test_generic_mode_laurent_ops():
    ring = ScalarRing.generic()
    v = ring.zeta_pow(1)
    assert v ** 4 * v ** -4 == ring.one
    assert ring.q_pow(3) == v ** 6
    x = v + v ** -1
    assert x * x == v ** 2 + 2 + v ** -2
    # no collapse ever happens away from a root
    assert not ring.q_pow(5).is_one()


def test_generic_inverse_only_for_monomials():
    ring = ScalarRing.generic()
    assert ring.q_pow(-2).inverse() == ring.q_pow(2)
    with pytest.raises((ArithmeticError, ZeroDivisionError)):
        (ring.one + ring.q_pow(1)).inverse()


def test_is_q_power_detection():
    root = ScalarRing.root_of_unity(5)
    assert root.is_q_power(root.q_pow(3))
    assert root.is_q_power(root.one)
    assert not root.is_q_power(root.q_pow(1) + root.one)
    assert not root.is_q_power(-root.q_pow(2))
    assert root.is_q_power(-root.q_pow(2), allow_sign=True)
    for m in range(5):
        assert root.root_exponent(root.zeta_pow(m)) == m
    assert root.root_exponent(-root.zeta_pow(1)) is None
    assert root.root_exponent(root.one + root.zeta_pow(1)) is None

    gen = ScalarRing.generic()
    assert gen.is_q_power(gen.q_pow(-4))
    assert not gen.is_q_power(gen.zeta_pow(1))
    assert not gen.is_q_power(gen.q_pow(2) * 2)
    assert gen.root_exponent(gen.zeta_pow(-3)) == -3
    assert gen.root_exponent(gen.zeta_pow(1) * 2) is None


def test_ring_equality_and_mode_mixing():
    r3 = ScalarRing.root_of_unity(3)
    r5 = ScalarRing.root_of_unity(5)
    assert r3 != r5
    assert r3 == ScalarRing.root_of_unity(3)
    with pytest.raises(ValueError):
        r3.zeta_pow(1) + r5.zeta_pow(1)


def test_even_order_rejected():
    with pytest.raises(ValueError):
        ScalarRing.root_of_unity(4)
    with pytest.raises(ValueError):
        ScalarRing.root_of_unity(0)
