"""Skein-style modules of the solid torus and of S^1 x S^2.

The solid torus module is the polynomial ring Q[x] with x the core curve
class.  A second basis {1, A_1(x), A_2(x), ...} is built from Chebyshev
polynomials; the module for S^1 x S^2 at an odd order is the quotient in
which A_i survives (renamed e_i) exactly when the order divides i + 2 and
every other A_i is set to zero.  The Frobenius map on the solid torus is
composition with T_order, and its induced matrix on the quotient is
diagonal with entries 2, -2, -2, ... which certifies injectivity at any
truncation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .chebyshev import Polynomial, chebyshev_a, chebyshev_t, dense
from .linear import exact, instance, integer, integer_solve, odd_order


def a_basis_expand(p: Polynomial) -> tuple[int | Fraction, dict[int, int | Fraction]]:
    """Coefficients of p over {1, A_1, A_2, ...}.

    Returns (constant coefficient, {i: coefficient of A_i}).  The change
    of basis is unitriangular since every A_i is monic of degree i, so
    leading-term subtraction on the coefficient list, from the top degree
    down, ends with a constant.
    """
    work = dense(instance(p, Polynomial))
    coeffs: dict[int, int | Fraction] = {}
    for d in range(len(work) - 1, 0, -1):
        c = work[d]
        if c:
            coeffs[d] = c
            terms = chebyshev_a(d).terms.items()
            if c == 1:
                # subtract A_d itself, with no products; p is often A_d
                # itself (the kill rule), so stop once the rest is a constant.
                # c may be an int or an integral Fraction left by arithmetic
                for e, a in terms:
                    work[e] -= a
                if not any(islice(work, 1, d)):
                    break
            else:
                for e, a in terms:
                    work[e] -= c * a
    constant = work[0] if work else 0
    return constant or 0, coeffs  # a cancelled Fraction constant reads as 0


def a_basis_build(constant, coeffs: dict[int, int | Fraction]) -> Polynomial:
    """Inverse of a_basis_expand: rebuild the polynomial."""
    return Polynomial.constant(constant).add_all(
        chebyshev_a(i) * c for i, c in coeffs.items()
    )


def _check_order(order: int) -> None:
    if odd_order(order) < 3:
        raise ValueError(f"order must be at least 3, got {order}")


class _S1S2Fields(NamedTuple):
    order: int
    empty_coeff: int | Fraction
    e_coeffs: tuple[tuple[int, int | Fraction], ...]


class S1S2Element(_S1S2Fields):
    """Element of the S^1 x S^2 module at a fixed odd order.

    Coefficients sit on the empty class and on classes e_i whose index
    satisfies order | i + 2; anything else was killed by the reduction.
    Indices follow ``linear.integer`` and coefficients ``Polynomial._coerce``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__, as is _replace

    def __new__(cls, order: int, empty_coeff, e_coeffs):
        self = super().__new__(cls, order, empty_coeff, e_coeffs)
        _check_order(order)
        exact(Polynomial._coerce, empty_coeff)
        for i, c in self.e_coeffs:
            if integer(i) < 1 or (i + 2) % order:
                raise ValueError(f"index {i} is not admissible at order {order}")
            if not exact(Polynomial._coerce, c):
                raise ValueError("zero coefficients must be dropped")
        indices = [i for i, _ in self.e_coeffs]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate index")
        if indices != sorted(indices):
            raise ValueError("indices must be sorted")
        return self

    def coefficient(self, i: int) -> int | Fraction:
        for j, c in self.e_coeffs:
            if j == i:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.empty_coeff and not self.e_coeffs


def s1s2_reduce(p: Polynomial, order: int) -> S1S2Element:
    """Expand p over the A-basis and apply the kill rule of the quotient."""
    _check_order(order)
    constant, coeffs = a_basis_expand(p)
    kept = sorted(
        (i, c) for i, c in coeffs.items() if (i + 2) % order == 0 and c
    )
    return S1S2Element(order, constant, tuple(kept))


def s1s2_frobenius_matrix(order: int, kmax: int) -> list[list[int]]:
    """Matrix of the reduced Frobenius images of T_0, T_order, ..., T_(kmax*order).

    Column k holds s1s2_reduce(T_(k*order)) written against the basis
    (empty, e_(order-2), e_(2*order-2), ..., e_(kmax*order-2)); T_0 means
    the constant 2.  The result is diagonal (2, -2, ..., -2), and the
    determinant is checked to be nonzero before returning.
    """
    _check_order(order)
    if integer(kmax) < 1:
        raise ValueError("kmax must be at least 1")
    size = kmax + 1
    matrix = [[0] * size for _ in range(size)]
    basis_indices = {row * order - 2 for row in range(1, size)}
    for k in range(size):
        reduced = s1s2_reduce(chebyshev_t(k * order), order)
        matrix[0][k] = reduced.empty_coeff
        for row in range(1, size):
            matrix[row][k] = reduced.coefficient(row * order - 2)
        for i, _ in reduced.e_coeffs:
            if i not in basis_indices:
                raise ArithmeticError(
                    f"reduction of T_{k * order} leaves index {i} outside the basis"
                )
    if not integer_solve(matrix)[0]:
        raise ArithmeticError("Frobenius matrix is singular at this truncation")
    return matrix
