"""Chebyshev-type polynomial families and canonical forms over them.

Three polynomial families:

* ``chebyshev_t``: T_0 = 2, T_1 = x, T_n = x*T_(n-1) - T_(n-2)
  (trace/power-sum normalisation);
* ``chebyshev_s``: S_0 = 1, S_1 = x, S_n = x*S_(n-1) - S_(n-2);
* ``chebyshev_a``: A_1 = S_1, A_2 = S_2, then A_n = S_n + A_(n-2); these are
  monic and interleave the S family.  They do not follow the T/S
  recursion: A_n - x*A_(n-1) + A_(n-2) is x for odd n and -1 for even
  n >= 3 (A_3 = x^3 - x, while x*A_2 - A_1 = x^3 - 2x).

Coefficients are ints where integral and exact Fractions otherwise.
``chebyshev_reduce`` rewrites an arbitrary polynomial as
sum_{j<N} c_j(T_N(x)) * x**j, which witnesses that 1, x, ..., x**(N-1)
generate everything over the subring hit by T_N.

The polynomials are dense up to parity, so the inner loops (products,
Horner's rule, division by T_N and the family recursions) run on dense
coefficient lists indexed by exponent: ``dense`` converts a
``Polynomial`` once on the way in and ``from_dense`` once on the way out.
Products, in ``Polynomial`` multiplication and Horner's rule, go through
``linear.convolve``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .linear import SparseCombination, accumulate, convolve


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
        return _sparse(convolve(dense(self), dense(other)))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute ``inner`` for the variable, exactly (Horner's rule)."""
        return from_dense(_horner([[c] for c in dense(self)], dense(inner)))

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    @staticmethod
    def _format_term(e: int, v: int | Fraction) -> str:
        if e == 0:
            return str(v)
        if e == 1:
            return "x" if v == 1 else f"{v}*x"
        return f"x^{e}" if v == 1 else f"{v}*x^{e}"


def dense(p: Polynomial) -> list:
    """Coefficient list of ``p`` indexed by exponent; [] for the zero polynomial."""
    if not p.terms:
        return []
    out = [0] * (max(p.terms) + 1)
    for e, v in p.terms.items():
        out[e] = v
    return out


def _sparse(coeffs: list) -> dict[int, int | Fraction]:
    return {e: v for e, v in enumerate(coeffs) if v}


def from_dense(coeffs: list) -> Polynomial:
    """The polynomial with these coefficients, built without re-validating them."""
    out = object.__new__(Polynomial)
    out.parent = None
    out.terms = _sparse(coeffs)
    return out


def _horner(rows: list[list], inner: list) -> list:
    """sum_k rows[k] * inner**k, with one product by ``inner`` per power."""
    out: list = []
    for row in reversed(rows):
        out = convolve(out, inner)
        out.extend([0] * (len(row) - len(out)))
        for i, v in enumerate(row):
            if v:
                out[i] += v
    return out


def _build_below(family, first: int, n: int) -> None:
    """Build family(first), ..., family(n - 1) bottom-up, so the stack stays shallow.

    Every miss calls this first, so the cache holds just first .. first + currsize - 1.
    """
    for i in range(first + family.cache_info().currsize, n):
        family(i)


def _x_times_minus(p1: Polynomial, p2: Polynomial) -> list:
    """Coefficient list of x*p1 - p2, the step of the T, S and A recursions."""
    out = [0] + dense(p1)
    for e, v in p2.terms.items():
        out[e] -= v
    return out


def _recur(family, n: int, zeroth: int) -> Polynomial:
    """P_n of the family P_0 = zeroth, P_1 = x, P_n = x*P_(n-1) - P_(n-2)."""
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Polynomial({0: zeroth})
    if n == 1:
        return Polynomial.x()
    _build_below(family, 0, n)
    return from_dense(_x_times_minus(family(n - 1), family(n - 2)))


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> Polynomial:
    return _recur(chebyshev_t, n, 2)


@lru_cache(maxsize=None)
def chebyshev_s(n: int) -> Polynomial:
    return _recur(chebyshev_s, n, 1)


@lru_cache(maxsize=None)
def chebyshev_a(n: int) -> Polynomial:
    """Monic interleaved family A_n = S_n + A_(n-2); defined for n >= 1 only.

    Built from itself: A_n = x*A_(n-1) - A_(n-2) + (x for odd n, -1 for
    even n), so no S polynomial is needed.
    """
    if n < 1:
        raise ValueError("the interleaved family starts at index 1")
    if n == 1:
        return Polynomial.x()
    if n == 2:
        return Polynomial({2: 1, 0: -1})
    _build_below(chebyshev_a, 1, n)
    out = _x_times_minus(chebyshev_a(n - 1), chebyshev_a(n - 2))
    if n % 2:
        out[1] += 1
    else:
        out[0] -= 1
    return from_dense(out)


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
        height = max((max(col.terms) + 1 for col in self.columns if col.terms), default=0)
        rows = [[0] * len(self.columns) for _ in range(height)]
        for j, col in enumerate(self.columns):
            for k, v in col.terms.items():
                rows[k][j] = v
        return from_dense(_horner(rows, dense(chebyshev_t(self.order))))


def chebyshev_reduce(p: Polynomial, order: int) -> ChebyshevForm:
    """Rewrite p over the basis x**j (j < order) with T_order-coefficients.

    Works by repeated division by T_order, which is monic: p = q*T + r_0,
    q = q'*T + r_1, ..., and column j collects the x**j terms of the r_k.
    Each division is synthetic division of a coefficient list, from the
    top degree down.
    """
    if order < 1:
        raise ValueError("order must be positive")
    t_terms = list(chebyshev_t(order).terms.items())
    rows: list[list] = []  # rows[k] = r_k as a coefficient list of length order
    rest = dense(p)
    while rest:
        quotient = [0] * max(len(rest) - order, 0)
        for m in range(len(rest) - 1, order - 1, -1):
            c = rest[m]
            if c:
                shift = m - order
                quotient[shift] = c
                for t, v in t_terms:
                    rest[shift + t] -= c * v
        rows.append(rest[:order] + [0] * (order - len(rest)))
        rest = quotient
    cols = zip(*rows) if rows else [()] * order
    return ChebyshevForm(order, tuple(map(from_dense, cols)))
