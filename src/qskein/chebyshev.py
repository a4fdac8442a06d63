"""Chebyshev-type polynomial families and canonical forms over them.

Three families share the recursion P(n) = x*P(n-1) - P(n-2):

* ``chebyshev_t``: seeds T_0 = 2, T_1 = x (trace/power-sum normalisation),
* ``chebyshev_s``: seeds S_0 = 1, S_1 = x,
* ``chebyshev_a``: A_1 = S_1, A_2 = S_2, then A_n = S_n + A_(n-2); these are
  monic and interleave the S family.

Coefficients are ints where integral and exact Fractions otherwise.
``chebyshev_reduce`` rewrites an arbitrary polynomial as
sum_{j<N} c_j(T_N(x)) * x**j, which witnesses that 1, x, ..., x**(N-1)
generate everything over the subring hit by T_N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .linear import SparseCombination, accumulate


def _exact(v) -> int | Fraction:
    """``v`` as an int when it is integral, else as an exact Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class Polynomial(SparseCombination):
    """Sparse univariate polynomial by exponent; integral coefficients are ints."""

    __slots__ = ()
    _identity = 0

    def __init__(self, coeffs: Mapping[int, Fraction | int] | Iterable | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        terms: dict[int, int | Fraction] = {}
        for e, v in items:
            if e < 0:
                raise ValueError("negative exponent")
            accumulate(terms, e, _exact(v))
        super().__init__(None, terms)

    @classmethod
    def constant(cls, v) -> "Polynomial":
        return cls({0: v})

    @classmethod
    def x(cls) -> "Polynomial":
        return cls({1: 1})

    def coefficients(self) -> dict[int, int | Fraction]:
        return dict(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self.terms)

    def leading_coefficient(self) -> int | Fraction:
        return self.terms[self.degree()]

    @staticmethod
    def _coerce(value) -> int | Fraction | None:
        return _exact(value) if isinstance(value, (int, Fraction)) else None

    def _mul_terms(self, other: "Polynomial") -> dict[int, int | Fraction]:
        acc: dict[int, int | Fraction] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                accumulate(acc, e1 + e2, v1 * v2)
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute ``inner`` for the variable, exactly (Horner's rule)."""
        return _horner(self.terms, inner)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    @staticmethod
    def _format_term(e: int, v: int | Fraction) -> str:
        if e == 0:
            return str(v)
        if e == 1:
            return "x" if v == 1 else f"{v}*x"
        return f"x^{e}" if v == 1 else f"{v}*x^{e}"


def _horner(rows: dict, inner: Polynomial) -> Polynomial:
    """sum_k rows[k] * inner**k, with one product by ``inner`` per power."""
    out = Polynomial()
    for k in range(max(rows, default=-1), -1, -1):
        out = out * inner + rows.get(k, 0)
    return out


def _build_below(family, first: int, n: int) -> None:
    """Build family(first), ..., family(n - 1) bottom-up, so the stack stays shallow.

    Every miss calls this first, so the cache holds just first .. first + currsize - 1.
    """
    for i in range(first + family.cache_info().currsize, n):
        family(i)


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> Polynomial:
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Polynomial({0: 2})
    if n == 1:
        return Polynomial.x()
    _build_below(chebyshev_t, 0, n)
    return Polynomial.x() * chebyshev_t(n - 1) - chebyshev_t(n - 2)


@lru_cache(maxsize=None)
def chebyshev_s(n: int) -> Polynomial:
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Polynomial({0: 1})
    if n == 1:
        return Polynomial.x()
    _build_below(chebyshev_s, 0, n)
    return Polynomial.x() * chebyshev_s(n - 1) - chebyshev_s(n - 2)


@lru_cache(maxsize=None)
def chebyshev_a(n: int) -> Polynomial:
    """Monic interleaved family; defined for n >= 1 only."""
    if n < 1:
        raise ValueError("the interleaved family starts at index 1")
    if n <= 2:
        return chebyshev_s(n)
    _build_below(chebyshev_a, 1, n)
    return chebyshev_s(n) + chebyshev_a(n - 2)


class ChebyshevForm(NamedTuple):
    """Canonical form p(x) = sum_{j<N} columns[j](T_N(x)) * x**j.

    ``columns[j]`` is a polynomial in one variable standing for T_N(x).
    """

    order: int
    columns: tuple[Polynomial, ...]

    def substitute(self) -> Polynomial:
        """Expand back to a plain polynomial (round-trip oracle).

        Horner's rule on the rows R_k = sum_j c_(j,k) x**j of sum_k R_k * T_N**k.
        """
        rows: dict[int, dict[int, int | Fraction]] = {}
        for j, col in enumerate(self.columns):
            for k, v in col.terms.items():
                rows.setdefault(k, {})[j] = v
        t_n = chebyshev_t(self.order)
        return _horner({k: Polynomial(r) for k, r in rows.items()}, t_n)


def chebyshev_reduce(p: Polynomial, order: int) -> ChebyshevForm:
    """Rewrite p over the basis x**j (j < order) with T_order-coefficients.

    Works by repeated division by T_order, which is monic: p = q*T + r_0,
    q = q'*T + r_1, ..., and column j collects the x**j terms of the r_k.
    Each division walks the degrees from the top down.
    """
    if order < 1:
        raise ValueError("order must be positive")
    lower = [(t, v) for t, v in chebyshev_t(order).terms.items() if t != order]
    rows: list[dict[int, int | Fraction]] = []  # rows[k] = r_k, keyed by x-degree
    rest = dict(p.terms)
    while rest:
        quotient: dict[int, int | Fraction] = {}
        for m in range(max(rest), order - 1, -1):
            c = rest.pop(m, 0)
            if c:
                quotient[m - order] = c
                for t, v in lower:
                    accumulate(rest, m - order + t, -c * v)
        rows.append(rest)
        rest = quotient
    cols = ({k: r[j] for k, r in enumerate(rows) if j in r} for j in range(order))
    return ChebyshevForm(order, tuple(map(Polynomial, cols)))
