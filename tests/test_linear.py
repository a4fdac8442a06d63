"""Exact kernels of ``linear``: fraction-free integer elimination, checked
against Gauss-Jordan over Fraction, and convolution, checked against the
schoolbook double loop; the operand rule of ``SparseCombination``
subtraction in each layer; and the type rule ``instance`` of the public
functions that take an element or a scalar."""

import random
from fractions import Fraction

import pytest

from qskein.chebyshev import Polynomial, chebyshev_reduce
from qskein.linear import convolve, integer_solve
from qskein.oq_sl2 import OqAlgebra
from qskein.quantum_torus import (
    QuantumTorus,
    balanced_puncture_basis,
    center_free_certificate,
    frobenius_map,
    once_punctured_torus,
    qt_deg,
)
from qskein.scalars import ScalarRing
from qskein.torus_skein import a_basis_expand, s1s2_reduce


def _fraction_solve(a, b):
    """(det A, A^-1 B) by Gauss-Jordan over Fraction; (0, None) for singular A."""
    n = len(a)
    rows = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a, b)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return 0, None
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        lead = rows[c][c]
        det *= lead
        rows[c] = [x / lead for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det, [row[n:] for row in rows]


def _random_system(rng):
    """A square A of size 1-8 with small entries and many zeros, and B of width 0-3."""
    n = rng.randint(1, 8)
    a = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        # a multiple of another row: singular by construction
        i, j = rng.sample(range(n), 2)
        a[i] = [rng.choice((-2, 1, 3)) * x for x in a[j]]
    width = rng.randint(0, 3)
    return a, [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)]


def test_integer_solve_matches_fraction_gauss_jordan():
    rng = random.Random(1968)
    singular = swapped = 0
    for _ in range(300):
        a, b = _random_system(rng)
        n = len(a)
        det, x = integer_solve([ra + rb for ra, rb in zip(a, b)])
        want_det, want_x = _fraction_solve(a, b)
        assert det == want_det
        assert all(type(v) is int for row in x for v in row)
        for i in range(n):
            for j in range(len(b[0])):
                assert sum(a[i][k] * x[k][j] for k in range(n)) == det * b[i][j]
        if det:
            assert [[Fraction(v, det) for v in row] for row in x] == want_x
        else:
            assert want_x is None
            assert not any(v for row in x for v in row)
        singular += not det
        swapped += not a[0][0]
    assert singular > 25 and swapped > 25


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_convolve_matches_the_schoolbook_product():
    rng = random.Random(5)
    entries = (0, 0, 1, -1, 3, -7, 10**30, Fraction(2, 3), Fraction(-5, 7))
    for _ in range(200):
        a = [rng.choice(entries) for _ in range(rng.randint(1, 9))]
        b = [rng.choice(entries) for _ in range(rng.randint(1, 9))]
        want = _schoolbook(a, b)
        assert convolve(a, b) == want
        assert convolve(tuple(a), tuple(b)) == want
    # an all-zero operand still gives the full length
    assert convolve([0, 0], [1, 2, 3]) == [0, 0, 0, 0]
    for a, b in (([], []), ([], [1, 2]), ((3,), ()), ((), (0,))):
        assert convolve(a, b) == []


def _bigon_generator():
    return OqAlgebra(ScalarRing.root_of_unity(5)).generator("a")


def _torus_generator():
    return QuantumTorus.from_triangulation(
        ScalarRing.root_of_unity(5), once_punctured_torus()
    ).generator(0)


def _polynomial():
    return Polynomial({1: 1})


_ELEMENTS = pytest.mark.parametrize(
    "make", [_bigon_generator, _torus_generator, _polynomial],
    ids=["OqElement", "QTElement", "Polynomial"],
)


@_ELEMENTS
@pytest.mark.parametrize("foreign", [1.5, "x"], ids=["float", "str"])
def test_subtracting_a_foreign_operand_names_the_minus_operator(make, foreign):
    """``x - y`` and ``y - x`` with y neither an element nor a coefficient
    return NotImplemented, so Python's TypeError names "-" and both types."""
    x = make()
    name, other = type(x).__name__, type(foreign).__name__
    unsupported = r"^unsupported operand type\(s\) for -: '{}' and '{}'$"
    with pytest.raises(TypeError, match=unsupported.format(name, other)):
        x - foreign
    with pytest.raises(TypeError, match=unsupported.format(other, name)):
        foreign - x


@_ELEMENTS
def test_subtraction_still_takes_elements_and_coefficients(make):
    x = make()
    assert x - x == 0
    assert (x - 2) + 2 == x
    assert 2 - x == -(x - 2)
    assert Fraction(1, 3) - x == -(x - Fraction(1, 3))


def _torus():
    return QuantumTorus.from_triangulation(ScalarRing(5), once_punctured_torus())


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: ScalarRing(5).root_exponent(1), "a Scalar"),
        (lambda: ScalarRing(5).is_q_power(1), "a Scalar"),
        (lambda: OqAlgebra(ScalarRing(5)).in_diagonal_tower(1, 0), "an OqElement"),
        (lambda: OqAlgebra(ScalarRing(5)).independence_certificate({(0, 0, 0, 0): 1}),
         "an OqElement"),
        (lambda: chebyshev_reduce(1, 3), "a Polynomial"),
        (lambda: a_basis_expand(1), "a Polynomial"),
        (lambda: s1s2_reduce(1, 3), "a Polynomial"),
        (lambda: frobenius_map(1, _torus(), 5), "a QTElement"),
        (lambda: qt_deg(1, balanced_puncture_basis(once_punctured_torus())), "a QTElement"),
        (lambda: center_free_certificate(
            3, target=_torus(), zbasis=balanced_puncture_basis(once_punctured_torus()),
            elements={(0,): 1}), "a QTElement"),
    ],
    ids=["root-exponent", "is-q-power", "diagonal-tower", "independence-certificate",
         "chebyshev-reduce", "a-basis-expand", "s1s2-reduce", "frobenius-map", "qt-deg",
         "center-free-certificate"],
)
def test_element_arguments_follow_the_type_rule(call, expected):
    """A number where an element or a scalar belongs raises a TypeError naming
    the expected class, never an AttributeError from inside the layer."""
    with pytest.raises(TypeError, match=f"^expected {expected}, got int 1$"):
        call()
