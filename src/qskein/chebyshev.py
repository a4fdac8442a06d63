"""Chebyshev-type polynomial families and canonical forms over them.

Three families share the recursion P(n) = x*P(n-1) - P(n-2):

* ``chebyshev_t``: seeds T_0 = 2, T_1 = x (trace/power-sum normalisation),
* ``chebyshev_s``: seeds S_0 = 1, S_1 = x,
* ``chebyshev_a``: A_1 = S_1, A_2 = S_2, then A_n = S_n + A_(n-2); these are
  monic and interleave the S family.

All coefficients are exact rationals.  ``chebyshev_reduce`` rewrites an
arbitrary polynomial as sum_{j<N} c_j(T_N(x)) * x**j, which witnesses that
1, x, ..., x**(N-1) generate everything over the subring hit by T_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .linear import SparseCombination, accumulate


class Polynomial(SparseCombination):
    """Sparse univariate polynomial with Fraction coefficients, keyed by exponent."""

    __slots__ = ()
    _identity = 0

    def __init__(self, coeffs: Mapping[int, Fraction | int] | Iterable | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        terms: dict[int, Fraction] = {}
        for e, v in items:
            if e < 0:
                raise ValueError("negative exponent")
            accumulate(terms, e, Fraction(v))
        super().__init__(None, terms)

    @classmethod
    def constant(cls, v) -> "Polynomial":
        return cls({0: v})

    @classmethod
    def x(cls) -> "Polynomial":
        return cls({1: 1})

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.degree()]

    @staticmethod
    def _coerce(value) -> Fraction | None:
        return Fraction(value) if isinstance(value, (int, Fraction)) else None

    def _mul_terms(self, other: "Polynomial") -> dict[int, Fraction]:
        acc: dict[int, Fraction] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                accumulate(acc, e1 + e2, v1 * v2)
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute ``inner`` for the variable, exactly."""
        return Polynomial().add_all(inner**e * v for e, v in self.terms.items())

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    @staticmethod
    def _format_term(e: int, v: Fraction) -> str:
        if e == 0:
            return str(v)
        if e == 1:
            return "x" if v == 1 else f"{v}*x"
        return f"x^{e}" if v == 1 else f"{v}*x^{e}"


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> Polynomial:
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Polynomial({0: 2})
    if n == 1:
        return Polynomial.x()
    return Polynomial.x() * chebyshev_t(n - 1) - chebyshev_t(n - 2)


@lru_cache(maxsize=None)
def chebyshev_s(n: int) -> Polynomial:
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Polynomial({0: 1})
    if n == 1:
        return Polynomial.x()
    return Polynomial.x() * chebyshev_s(n - 1) - chebyshev_s(n - 2)


@lru_cache(maxsize=None)
def chebyshev_a(n: int) -> Polynomial:
    """Monic interleaved family; defined for n >= 1 only."""
    if n < 1:
        raise ValueError("the interleaved family starts at index 1")
    if n <= 2:
        return chebyshev_s(n)
    return chebyshev_s(n) + chebyshev_a(n - 2)


@dataclass(frozen=True)
class ChebyshevForm:
    """Canonical form p(x) = sum_{j<N} columns[j](T_N(x)) * x**j.

    ``columns[j]`` is a polynomial in one variable standing for T_N(x).
    """

    order: int
    columns: tuple[Polynomial, ...]

    def substitute(self) -> Polynomial:
        """Expand back to a plain polynomial (round-trip oracle)."""
        t_n = chebyshev_t(self.order)
        return Polynomial().add_all(
            col.compose(t_n) * Polynomial({j: 1}) for j, col in enumerate(self.columns)
        )


def chebyshev_reduce(p: Polynomial, order: int) -> ChebyshevForm:
    """Rewrite p over the basis x**j (j < order) with T_order-coefficients.

    Works by repeated top-degree elimination with
    x**order = T_order(x) - (lower terms); the top coefficient of T_order
    is 1, so the elimination is exact and terminates.
    """
    if order < 1:
        raise ValueError("order must be positive")
    lam = chebyshev_t(order).coefficients()  # includes the top coefficient 1
    # working terms: (x-degree, y-degree) -> coefficient, y standing for T_order(x)
    work: dict[tuple[int, int], Fraction] = {
        (e, 0): v for e, v in p.coefficients().items()
    }
    while True:
        top = max((k for k in work if k[0] >= order), default=None, key=lambda k: k[0])
        if top is None:
            break
        m, ydeg = top
        c = work.pop(top)
        accumulate(work, (m - order, ydeg + 1), c)
        for t, lt in lam.items():
            if t != order:
                accumulate(work, (m - order + t, ydeg), -c * lt)
    cols = []
    for j in range(order):
        cols.append(Polynomial({y: v for (xd, y), v in work.items() if xd == j}))
    return ChebyshevForm(order, tuple(cols))
