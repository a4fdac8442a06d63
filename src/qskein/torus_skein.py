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

from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import Polynomial, chebyshev_a, chebyshev_t
from .linear import accumulate, row_reduce


def a_basis_expand(p: Polynomial) -> tuple[Fraction, dict[int, Fraction]]:
    """Coefficients of p over {1, A_1, A_2, ...}.

    Returns (constant coefficient, {i: coefficient of A_i}).  The change
    of basis is unitriangular since every A_i is monic of degree i, so
    repeated leading-term subtraction terminates with a constant.
    """
    work = dict(p.coefficients())
    coeffs: dict[int, Fraction] = {}
    while work:
        d = max(work)
        if d == 0:
            break
        c = work.pop(d)
        coeffs[d] = c
        for e, a in chebyshev_a(d).terms.items():
            if e != d:
                accumulate(work, e, -c * a)
    constant = work.get(0, Fraction(0))
    return constant, coeffs


def a_basis_build(constant, coeffs: dict[int, Fraction]) -> Polynomial:
    """Inverse of a_basis_expand: rebuild the polynomial."""
    return Polynomial.constant(constant).add_all(
        chebyshev_a(i) * c for i, c in coeffs.items()
    )


@dataclass(frozen=True)
class S1S2Element:
    """Element of the S^1 x S^2 module at a fixed odd order.

    Coefficients sit on the empty class and on classes e_i whose index
    satisfies order | i + 2; anything else was killed by the reduction.
    """

    order: int
    empty_coeff: Fraction
    e_coeffs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.order < 3 or self.order % 2 == 0:
            raise ValueError("order must be odd and at least 3")
        seen = set()
        for i, c in self.e_coeffs:
            if i < 1 or (i + 2) % self.order:
                raise ValueError(f"index {i} is not admissible at order {self.order}")
            if i in seen:
                raise ValueError("duplicate index")
            if not c:
                raise ValueError("zero coefficients must be dropped")
            seen.add(i)
        if tuple(sorted(i for i, _ in self.e_coeffs)) != tuple(
            i for i, _ in self.e_coeffs
        ):
            raise ValueError("indices must be sorted")

    def coefficient(self, i: int) -> Fraction:
        for j, c in self.e_coeffs:
            if j == i:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.empty_coeff and not self.e_coeffs


def s1s2_reduce(p: Polynomial, order: int) -> S1S2Element:
    """Expand p over the A-basis and apply the kill rule of the quotient."""
    constant, coeffs = a_basis_expand(p)
    kept = sorted(
        (i, c) for i, c in coeffs.items() if (i + 2) % order == 0 and c
    )
    return S1S2Element(order, constant, tuple(kept))


def torus_frobenius(p: Polynomial, order: int) -> Polynomial:
    """Frobenius on the solid torus: substitute T_order(x) for x."""
    return p.compose(chebyshev_t(order))


def s1s2_frobenius_matrix(order: int, kmax: int) -> list[list[Fraction]]:
    """Matrix of the reduced Frobenius images of T_0, T_order, ..., T_(kmax*order).

    Column k holds s1s2_reduce(T_(k*order)) written against the basis
    (empty, e_(order-2), e_(2*order-2), ..., e_(kmax*order-2)); T_0 means
    the constant 2.  The result is diagonal (2, -2, ..., -2), and the
    determinant is checked to be nonzero before returning.
    """
    if order < 3 or order % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    size = kmax + 1
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for k in range(size):
        if k == 0:
            reduced = s1s2_reduce(Polynomial.constant(2), order)
        else:
            reduced = s1s2_reduce(chebyshev_t(k * order), order)
        matrix[0][k] = reduced.empty_coeff
        for row in range(1, size):
            matrix[row][k] = reduced.coefficient(row * order - 2)
        basis_indices = {row * order - 2 for row in range(1, size)}
        for i, _ in reduced.e_coeffs:
            if i not in basis_indices:
                raise ArithmeticError(
                    f"reduction of T_{k * order} leaves index {i} outside the basis"
                )
    if not row_reduce(matrix)[2]:
        raise ArithmeticError("Frobenius matrix is singular at this truncation")
    return matrix
