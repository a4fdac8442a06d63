"""Exact scalar arithmetic in both coefficient modes."""

import math
import random
from fractions import Fraction

import pytest

from qskein.scalars import Scalar, ScalarRing, _lowest, cyclotomic_coefficients


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


def _reference_coefficients(ring, poly):
    """Fraction coefficients of poly(zeta) over 1, ..., zeta**(d-1), by long division."""
    phi = cyclotomic_coefficients(ring.order)
    d = len(phi) - 1
    work = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            for j in range(d + 1):
                work[i - d + j] -= c * phi[j]
    return work[:d]


def _coefficients(s):
    """Fraction coefficients of a root-mode scalar, checking its representation."""
    nums, den = s._rep
    assert den > 0 and math.gcd(den, *nums) == 1
    values = [Fraction(n, den) for n in nums]
    if s._base is None:
        k, c, tag_den = s._mono
        assert tag_den == den
        power = _reference_coefficients(s.ring, [0] * k + [1])
        assert values == [Fraction(c, den) * x for x in power]
    return values


def _reference_product(ring, x, y):
    prod = [Fraction(0)] * (len(x) + len(y))
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    return _reference_coefficients(ring, prod)


@pytest.mark.parametrize("order", [5, 9, 15, 21])
def test_products_of_every_operand_shape(order):
    """One, +-c*zeta**k for every k, dense and zero, paired both ways and inverted."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order)
    operands = [ring.one, ring.zero]
    for k in range(order):
        c = Fraction((-1) ** k * rng.randint(1, 9), rng.randint(2, 5))
        operands.append(ring.zeta_pow(k) * c)
    for _ in range(2):
        dense = ring.zero
        for m in range(order):
            dense = dense + ring.zeta_pow(m) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        operands.append(dense)
    assert operands[-1]._mono == (0, 1, 1) and operands[-1]._base is not None
    assert operands[2]._base is None
    coeffs = [_coefficients(x) for x in operands]
    for x, cx in zip(operands, coeffs):
        for y, cy in zip(operands, coeffs):
            assert _coefficients(x * y) == _reference_product(ring, cx, cy)
        if x:
            inv = x.inverse()
            one = [Fraction(1)] + [Fraction(0)] * (len(cx) - 1)
            assert _reference_product(ring, cx, _coefficients(inv)) == one


@pytest.mark.parametrize("order", [5, 9, 15, 21])
def test_equal_values_have_one_representation(order):
    ring = ScalarRing.root_of_unity(order)
    z = ring.zeta_pow
    for a in range(order):
        for b in range(-order, order):
            same = {z(a + b), z(a) * z(b), (2 * z(a + b)) / 2, -(-z(a + b))}
            assert len(same) == 1
    half = (z(0) + z(1)) * Fraction(1, 2)
    dense = z(0) + z(1) + z(order - 1) * Fraction(1, 3)
    sums = [
        half + half,
        half + z(0) * Fraction(1, 2) + z(1) * Fraction(1, 2),
        dense - z(order - 1) * Fraction(1, 3),
        (dense * 3 - z(order - 1)) / 3,
    ]
    assert len(set(sums)) == 1 and all(s == z(0) + z(1) for s in sums)
    assert sums[2]._rep[1] == 1
    assert hash(dense * dense.inverse()) == hash(ring.one)


@pytest.mark.parametrize("order", [5, 9, 15, 21])
def test_sums_of_tagged_scalars(order):
    """Equal exponents give a tagged monomial in lowest terms, unequal a dense sum."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order)
    powers = [_reference_coefficients(ring, [0] * k + [1]) for k in range(order)]

    def term(k, c):
        return ring.zeta_pow(k) * c, [c * x for x in powers[k]]

    for k in range(order):
        for _ in range(6):
            c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            c2 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            (x, cx), (y, cy) = term(k, c1), term(k, c2)
            for total, want in ((x + y, c1 + c2), (x - y, c1 - c2)):
                assert total._base is None and total._mono[0] == k
                # _coefficients checks lowest terms and that the tag fits the value
                assert _coefficients(total) == [want * v for v in powers[k]]
        # exact cancellation, with fractional and integral coefficients
        c = Fraction(rng.randint(1, 9), rng.randint(2, 6))
        x = ring.zeta_pow(k) * c
        for total in (x - x, x + (-x), -x + x, ring.zeta_pow(k) * 3 - ring.zeta_pow(k) * 3):
            assert total._base is None and total._mono[0] == k
            assert total == ring.zero and hash(total) == hash(ring.zero)
            assert total._rep == ring.zero._rep and not total
        half = ring.zeta_pow(k) * Fraction(1, 2)
        assert (half + half)._rep == ring.zeta_pow(k)._rep
        for j in range(order):
            if j == k:
                continue
            c1 = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            c2 = Fraction(-rng.randint(1, 9), rng.randint(1, 6))
            (x, cx), (y, cy) = term(k, c1), term(j, c2)
            total = x + y
            assert total._mono == (0, 1, 1) and total._base is not None
            assert _coefficients(total) == [a + b for a, b in zip(cx, cy)]


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
    assert 1 - x == ring.one - x
    assert Fraction(1, 2) - x == ring.from_rational(Fraction(1, 2)) - x


def test_generic_mode_laurent_ops():
    ring = ScalarRing.generic()
    v = ring.zeta_pow(1)
    assert v ** 4 * v ** -4 == ring.one
    assert ring.q_pow(3) == v ** 6
    x = v + v ** -1
    assert x * x == v ** 2 + 2 + v ** -2
    # no collapse ever happens away from a root
    assert not ring.q_pow(5).is_one()
    assert repr(v * v * Fraction(-3, 2) + 1) == "1 + -3/2*v^2"


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


def _tagged_values(ring, rng):
    """Tagged scalars (c / den) * zeta**k for every k: units, rationals, zeros."""
    out = []
    for k in range(ring.order):
        for c in (Fraction(1), Fraction(-1), Fraction(rng.randint(2, 9), rng.randint(2, 6)),
                  Fraction(-rng.randint(1, 9), rng.randint(1, 6)), Fraction(0)):
            out.append(ring.zeta_pow(k) * c)
    return out


def _dense_twin(ring, s):
    """The value of a tagged scalar, built densely from the numerators of its tag."""
    k, c, den = s._mono
    return Scalar(ring, _lowest(ring._reduce([0] * k + [c] + [0] * ring._degree), den))


def _numerators_built(s):
    return s._nums is not None


@pytest.mark.parametrize("order", [1, 3, 15, 21])
def test_lazy_tags_match_dense_values(order):
    """A tagged scalar builds its numerators on first read, and agrees with
    the same value built densely on ==, hash, repr, -, inverse and
    root_exponent, both ways round."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order)
    values = _tagged_values(ring, rng)
    assert all(s._base is None for s in values)
    # products, inverses and negatives of tags read only the tags; a result
    # that is a root power is the ring's table entry, built with the ring
    derived = [x * y for x in values[::7] for y in values[2::11]]
    derived += [-x for x in values] + [x.inverse() for x in values if x]
    for s in derived:
        assert s._base is None
        assert not _numerators_built(s) or s is ring.zeta_pow(s._mono[0])
    for i, s in enumerate(values + derived):
        dense = _dense_twin(ring, s)
        assert dense._mono == (0, 1, 1) and _numerators_built(dense)
        assert s == dense and dense == s
        assert hash(s) == hash(dense)
        # the numerators the eager code gave: c times those of zeta**k, over den
        k, c, den = s._mono
        eager = (tuple(c * x for x in ring.zeta_pow(k)._rep[0]), den) if c else ring.zero._rep
        assert _numerators_built(s) and s._rep == eager == dense._rep
        assert repr(s) == repr(dense)
        assert -s == -dense and -dense == -s
        assert ring.root_exponent(s) == ring.root_exponent(dense)
        if s:
            assert s.inverse() * dense == ring.one == dense * s.inverse()
            if i % 8 == 0:  # a dense inverse is an elimination: sample them
                assert s.inverse() == dense.inverse() and dense.inverse() == s.inverse()
        else:
            assert not dense
    # zeros tagged with different exponents are all the ring's zero
    zeros = [ring.zeta_pow(k) * 0 for k in range(order)]
    zeros += [ring.zeta_pow(k) * Fraction(1, 3) - ring.zeta_pow(k) * Fraction(1, 3)
              for k in range(order)]
    assert {z._mono[0] for z in zeros} == set(range(order))
    assert all(z._base is None for z in zeros)
    for z in zeros:
        assert z == ring.zero and ring.zero == z and not z
        assert all(z == other for other in zeros)
        assert hash(z) == hash(ring.zero)


def _dense_value(ring, rng):
    """A dense scalar: a sum of every root power with random coefficients."""
    dense = ring.zero
    for m in range(ring.order):
        dense = dense + ring.zeta_pow(m) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return dense


@pytest.mark.parametrize("order", [3, 15, 21])
def test_lazy_products_match_dense_products(order):
    """A monomial times a dense scalar keeps the dense factor and builds its
    numerators on first read; it agrees on ==, hash, repr, truth and
    negation with the product of two dense scalars.  A monomial times such
    a product multiplies the tags, so one factor is kept however long the
    chain."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order + 1)
    dense = _dense_value(ring, rng)
    assert dense._mono == (0, 1, 1) and dense._base is not None and dense
    assert _numerators_built(dense)
    for tag in _tagged_values(ring, rng)[::3]:
        if tag == ring.one:
            assert tag * dense is dense and dense * tag is dense
            continue
        product = tag * dense
        assert product._base is dense._base
        # the dense side's identity tag leaves the monomial's tag as it is
        assert product._mono is tag._mono and not _numerators_built(product)
        again = tag * product
        assert again._base is dense._base
        twin = _dense_twin(ring, tag)
        # truth values and negatives read the tag, not the numerators
        assert bool(product) == bool(tag)
        negated = -product
        assert negated._base is dense._base
        assert not _numerators_built(product) and not _numerators_built(negated)
        assert product == twin * dense and twin * dense == product
        assert negated == -(twin * dense)
        # the built numerators sit beside the tag and factor, which stay as set
        assert _numerators_built(product)
        assert product._mono is tag._mono and product._base is dense._base
        assert hash(product) == hash(twin * dense)
        assert repr(product) == repr(twin * dense)
        assert again == twin * (twin * dense)
    chain, q = dense, ring.q_pow(1)
    for _ in range(5000):
        chain = q * chain
    assert chain._base is dense._base
    assert chain == dense * ring.q_pow(5000)


@pytest.mark.parametrize("order", [3, 15, 21])
def test_products_of_tagged_products(order):
    """The product of two monomial-times-dense products multiplies the tags
    and the factors, reads neither operand's numerators, and equals the
    product of the same values built densely."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order + 2)
    x, y = _dense_value(ring, rng), _dense_value(ring, rng)
    tags = [s for s in _tagged_values(ring, rng) if s != ring.one]
    for s, t in zip(tags[::4], tags[1::5]):
        left, right = s * x, t * y
        product = left * right
        assert not _numerators_built(left) and not _numerators_built(right)
        assert product._base is not None
        want = (_dense_twin(ring, s) * x) * (_dense_twin(ring, t) * y)
        assert product == want and hash(product) == hash(want)
        assert bool(product) == bool(s and t)
        assert left * left == (s * s) * (x * x)


@pytest.mark.parametrize("order", [3, 15, 21])
def test_one_identity_tag(order):
    """One, a twice-negated scalar and a scalar built from numerators alone
    all carry the very tuple that is one's tag, so one times them is them."""
    ring = ScalarRing.root_of_unity(order)
    one, dense = ring.one, _dense_value(ring, random.Random(order + 3))
    assert -(-one) is one
    back = -(-dense)
    assert back._mono is one._mono and back._rep is dense._rep and back == dense
    rebuilt = Scalar(ring, dense._rep)
    assert rebuilt._mono is one._mono and rebuilt._base is dense._rep and rebuilt
    for x in (back, rebuilt):
        assert one * x is x and x * one is x
        assert x * ring.zeta_pow(1) == dense * ring.zeta_pow(1)
        assert hash(x) == hash(dense) and -x == -dense
    zero = Scalar(ring, ((0,) * ring._degree, 1))
    assert not zero and zero == ring.zero and zero * dense == ring.zero


@pytest.mark.parametrize("order", [1, 3, 5, 21])
def test_from_power_counts(order):
    """sum_i counts[i] zeta^(step i) against sums of root powers, tagged
    exactly when the counts, folded modulo zeta^N = 1, are one c * zeta^k,
    or when the sum is some zeta^m."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order)
    for step in (1, 2, -2):
        for _ in range(30):
            counts = [rng.choice([0, 0, 1, 2, 5]) for _ in range(order + rng.randint(0, 3))]
            want = ring.zero
            for i, c in enumerate(counts):
                want = want + ring.zeta_pow(step * i) * c
            got = ring.from_power_counts(counts, step)
            assert got == want
            folded = [0] * order
            for i, c in enumerate(counts):
                folded[step * i % order] += c
            single = order - folded.count(0) == 1 or ring.root_exponent(got) is not None
            assert (got._base is None) == single
    # every count equal: the sum of all N-th roots of unity, zero for N > 1
    assert not ring.from_power_counts([3] * order, 2) or order == 1
    got = ring.from_power_counts([0, 0, 4], -2)
    assert got._mono == (-4 % order, 4, 1) and got._base is None
    generic = ScalarRing.generic()
    assert generic.from_power_counts([1, 0, 3], -2) == generic.one + generic.zeta_pow(-4) * 3


@pytest.mark.parametrize("order", [5, 7, 21])
def test_mul_zeta_pow_is_two_products_and_a_root_power(order):
    """x.mul_zeta_pow(y, m) equals x * y * zeta**m for tags, dense scalars
    and zeros, any m; two tags give a tag with no numerators built."""
    ring = ScalarRing.root_of_unity(order)
    rng = random.Random(order)
    tags = _tagged_values(ring, rng)[::3]
    dense = [ring.one + ring.zeta_pow(1) * Fraction(2, 3), ring.zeta_pow(2) - Fraction(5, 4)]
    assert all(s._base is not None for s in dense)
    operands = tags + dense + [ring.zero, ring.one]
    exponents = [0, 1, -1, order, -order - 3, 10**6 + 7, -(10**9)]
    for x in operands:
        for y in operands[:: 2 if x._base is None else 1]:
            for m in exponents:
                want = x * y * ring.zeta_pow(m)
                got = x.mul_zeta_pow(y, m)
                assert got == want and hash(got) == hash(want)
    for x in tags:
        for y in tags[::5]:
            got = x.mul_zeta_pow(y, 3)
            assert got._base is None
            assert not _numerators_built(got) or got is ring.zeta_pow(got._mono[0])
    # a scalar of an equal ring built apart takes the two products
    other = ScalarRing.root_of_unity(order)
    x, y = ring.zeta_pow(2) * 3, other.zeta_pow(1) * Fraction(1, 2)
    assert x.mul_zeta_pow(y, -4) == ring.zeta_pow(-1) * Fraction(3, 2)


def test_mul_zeta_pow_generic_mode():
    ring = ScalarRing.generic()
    v = ring.zeta_pow
    operands = [ring.one, ring.zero, v(3) * Fraction(-2, 5), v(-1) + v(4) * 7, ring.from_rational(3)]
    for x in operands:
        for y in operands:
            for m in (0, 2, -7, 10**6):
                assert x.mul_zeta_pow(y, m) == x * y * v(m)
    assert (v(1) + 1).mul_zeta_pow(v(2), -3) == ring.one + v(-1)


def test_reprs_write_each_term_once_with_no_factor_one():
    generic = ScalarRing.generic()
    v = generic.zeta_pow(1)
    third = generic.from_rational(Fraction(1, 3))
    assert [repr(x) for x in (
        generic.zero, generic.one, v, v * Fraction(3, 2), third - v - 2 * v * v,
        v ** -2 * Fraction(-5, 7) + v,
    )] == ["0", "1", "v", "3/2*v", "1/3 + -1*v + -2*v^2", "-5/7*v^-2 + v"]
    root = ScalarRing.root_of_unity(5)
    z = root.zeta_pow(1)
    assert [repr(x) for x in (
        root.zero, root.one, z, 2 * z + z * z, Fraction(1, 2) - z * z * Fraction(3, 2),
        root.zeta_pow(4),
    )] == ["0", "1", "z", "2*z + z^2", "1/2 + -3/2*z^2", "-1 + -1*z + -1*z^2 + -1*z^3"]


def _cascade_reduce(ring, coeffs):
    """The earlier reduction: fold zeta**N = 1, then cancel Phi_N from the
    top entry down, substituting zeta**d = -sum phi[j] zeta**j each time."""
    n, d = ring.order, ring._degree
    phi_low = [(j, c) for j, c in enumerate(cyclotomic_coefficients(n)[:d]) if c]
    for i in range(len(coeffs) - 1, n - 1, -1):
        if coeffs[i]:
            coeffs[i - n] += coeffs[i]
    for i in range(min(len(coeffs), n) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            for j, p in phi_low:
                coeffs[i - d + j] -= c * p
    return tuple(coeffs[:d])


@pytest.mark.parametrize("order", [1, 3, 5, 7, 9, 15, 21, 105])
def test_fold_table_reduces_like_the_cascade(order):
    """_reduce through the fold table equals the top-down cascade on random
    int lists of every length d .. 3N and of the product length 2d - 1."""
    ring = ScalarRing.root_of_unity(order)
    d = ring._degree
    rng = random.Random(order)
    lengths = list(range(d, 3 * order + 1)) + [2 * d - 1] * 20
    for length in lengths:
        coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-10**6, 10**6)]) for _ in range(length)]
        assert ring._reduce(list(coeffs)) == _cascade_reduce(ring, list(coeffs))


@pytest.mark.parametrize("order", [1, 3, 5, 7, 9, 15, 21, 105])
def test_root_power_tables_match_the_cascade(order):
    """_powers and _exponents, built from the fold rows, are the tables the
    cascade gives: zeta**m reduced, tagged 1 * zeta**m, and m back from it."""
    ring = ScalarRing.root_of_unity(order)
    d = ring._degree
    reps = [(_cascade_reduce(ring, [0] * m + [1] + [0] * d), 1) for m in range(order)]
    assert [s._rep for s in ring._powers] == reps
    assert [s._mono for s in ring._powers] == [(m, 1, 1) for m in range(order)]
    assert ring._powers[0]._mono is ring.one._mono
    assert ring._exponents == {rep: m for m, rep in enumerate(reps)}
    assert len(ring._fold) == order - d
    for (plus, minus, rest, row), s in zip(ring._fold, ring._powers[d:]):
        assert row is s._rep[0]
        assert [row[j] for j in plus] == [1] * len(plus)
        assert [row[j] for j in minus] == [-1] * len(minus)
        assert sorted(plus + minus + rest) == [j for j, c in enumerate(row) if c]


def test_fold_rows_list_each_nonzero_once_at_four_odd_primes():
    """At N = 1155 = 3 * 5 * 7 * 11 the fold rows have numerators up to 9 in
    size; each nonzero is still listed once, and _reduce is the cascade."""
    ring = ScalarRing.root_of_unity(1155)
    d = ring._degree
    rows = [row for _, _, _, row in ring._fold]
    nonzeros = sum(len(row) - row.count(0) for row in rows)
    assert sum(len(p) + len(m) + len(r) for p, m, r, _ in ring._fold) == nonzeros
    assert max(max(map(abs, row)) for row in rows) == 9
    rng = random.Random(1155)
    for length in (d, 2 * d - 1, 1155, 3 * 1155):
        coeffs = [rng.choice([0, 1, -1, rng.randint(-10**6, 10**6)]) for _ in range(length)]
        assert ring._reduce(list(coeffs)) == _cascade_reduce(ring, list(coeffs))


@pytest.mark.parametrize("value", [0.1, "1/3", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize(
    "ring", [ScalarRing.generic(), ScalarRing.root_of_unity(3)], ids=["generic", "N3"]
)
def test_from_rational_refuses_inexact_input(ring, value):
    """Only ints (not bools) and Fractions are rationals: 0.1 is not its
    binary fraction, and "1/3" is not parsed."""
    with pytest.raises(TypeError, match="expected"):
        ring.from_rational(value)


@pytest.mark.parametrize("value", [0.5, "1", True], ids=["float", "string", "bool"])
def test_generic_root_powers_refuse_non_integers(value):
    with pytest.raises(TypeError, match="expected an integer"):
        ScalarRing.generic().zeta_pow(value)


@pytest.mark.parametrize("value", [True, 5.0, "5"], ids=["bool", "float", "string"])
def test_root_of_unity_order_follows_the_integer_rule(value):
    with pytest.raises(TypeError, match="expected an integer, got"):
        ScalarRing.root_of_unity(value)


@pytest.mark.parametrize("order", [4, 0, -3])
def test_root_of_unity_order_is_odd_and_positive(order):
    with pytest.raises(ValueError, match=f"order must be odd and positive, got {order}"):
        ScalarRing.root_of_unity(order)


@pytest.mark.parametrize("order", [4, -3])
def test_constructor_order_is_odd_and_positive(order):
    """ScalarRing(4) would hold a zeta with zeta**4 = 1 and q = zeta**2 = -1,
    of order 2, not 4."""
    with pytest.raises(ValueError, match=f"order must be odd and positive, got {order}"):
        ScalarRing(order)


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_constructor_order_follows_the_integer_rule(value):
    with pytest.raises(TypeError, match="expected an integer, got"):
        ScalarRing(value)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "ring", [ScalarRing.generic(), ScalarRing.root_of_unity(5)], ids=["generic", "N5"]
)
def test_scalar_power_follows_the_integer_rule(ring, n):
    """zeta ** True is not zeta: the exponent is read by ``linear.integer``."""
    z = ring.zeta_pow(1)
    assert z ** -2 == ring.zeta_pow(-2)
    with pytest.raises(TypeError, match="expected an integer, got"):
        z ** n


def test_scalars_of_different_orders_differ():
    assert ScalarRing.root_of_unity(5).one != ScalarRing.root_of_unity(7).one


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("name", ["zeta_pow", "q_pow"])
@pytest.mark.parametrize(
    "ring", [ScalarRing.generic(), ScalarRing.root_of_unity(5)], ids=["generic", "N5"]
)
def test_root_powers_refuse_non_integers_in_either_mode(ring, name, value):
    """2 * True is 2, so q_pow checks its own argument."""
    with pytest.raises(TypeError, match="expected an integer, got"):
        getattr(ring, name)(value)


def test_rings_are_named_by_their_order_alone():
    assert ScalarRing.root_of_unity(5).order == 5
    assert ScalarRing.generic().order is None
    assert ScalarRing.generic() == ScalarRing.generic()
    assert ScalarRing.generic() != ScalarRing.root_of_unity(1)
    assert not hasattr(ScalarRing.generic(), "mode")
    assert repr(ScalarRing.root_of_unity(5)) == "ScalarRing(root_of_unity, N=5)"
    assert repr(ScalarRing.generic()) == "ScalarRing(generic)"


def test_root_exponent_refuses_another_rings_scalar():
    with pytest.raises(ValueError, match=r"^scalar from a different ring$"):
        ScalarRing.root_of_unity(5).root_exponent(ScalarRing.root_of_unity(7).zeta_pow(1))


def test_from_rational_refuses_a_scalar():
    """A Scalar is not a rational, not even one of the very ring."""
    ring = ScalarRing.root_of_unity(5)
    with pytest.raises(TypeError, match=r"^expected an int or a Fraction, got a Scalar, 1$"):
        ring.from_rational(ring.one)


def test_cyclotomic_index_zero_is_refused():
    with pytest.raises(ValueError, match=r"^cyclotomic index must be positive$"):
        cyclotomic_coefficients(0)
