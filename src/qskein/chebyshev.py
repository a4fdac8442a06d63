"""Chebyshev-type polynomial families and canonical forms over them.

Three polynomial families:

* ``chebyshev_t``: T_0 = 2, T_1 = x, T_n = x*T_(n-1) - T_(n-2)
  (trace/power-sum normalisation);
* ``chebyshev_s``: S_0 = 1, S_1 = x, S_n = x*S_(n-1) - S_(n-2);
* ``chebyshev_a``: A_1 = S_1, A_2 = S_2, then A_n = S_n + A_(n-2); these are
  monic and interleave the S family.  They do not follow the T/S
  recursion: A_n - x*A_(n-1) + A_(n-2) is x for odd n and -1 for even
  n >= 3 (A_3 = x^3 - x, while x*A_2 - A_1 = x^3 - 2x).

Coefficients are ints or Fractions (``Polynomial._coerce``) and exponents
ints (``linear.integer``); floats, strings and bools raise TypeError.  The
constructor stores integral values as ints; arithmetic on Fractions may
leave integral Fractions, which compare and hash as the equal ints.
``chebyshev_reduce`` rewrites an arbitrary polynomial as
sum_{j<N} c_j(T_N(x)) * x**j, which witnesses that 1, x, ..., x**(N-1)
generate everything over the subring hit by T_N.

Every family member has the parity of its index.  Each family is one
table, index -> row, where a row lists the member's coefficients at the
exponents of its parity, from the lowest up.  A loop of list operations
grows a table from its top row; no recursion and no ``Polynomial`` is
involved.  The ``lru_cache`` functions build a member's ``Polynomial`` from
its row once.  ``chebyshev_reduce`` and ``ChebyshevForm.substitute`` read
T_N's terms below x**N from the table.  Products and ``compose`` run on
dense coefficient lists indexed by exponent (``dense`` and ``from_dense``
convert) through ``linear.convolve``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .linear import SparseCombination, accumulate, convolve, exact, instance, integer, term_text


class Polynomial(SparseCombination):
    """Sparse univariate polynomial by exponent, with int or Fraction coefficients."""

    __slots__ = ()
    _identity = 0

    def __init__(self, coeffs: Mapping[int, Fraction | int] | Iterable | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else (coeffs or ())
        terms: dict[int, int | Fraction] = {}
        for e, v in items:
            if integer(e) < 0:
                raise ValueError("negative exponent")
            accumulate(terms, e, exact(self._coerce, v))
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
        """The coefficient rule: an int (not a bool), or a Fraction (as an int if integral)."""
        if type(value) is int:
            return value
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            return None
        return value.numerator if value.denominator == 1 else value

    def _mul_terms(self, other: "Polynomial") -> dict[int, int | Fraction]:
        return _sparse(convolve(dense(self), dense(other)))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute ``inner`` for the variable, exactly (Horner's rule)."""
        inner_coeffs = dense(instance(inner, Polynomial))
        out: list = []
        for c in reversed(dense(self)):
            out = convolve(out, inner_coeffs) or [0]
            out[0] += c
        return from_dense(out)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    @staticmethod
    def _format_term(e: int, v: int | Fraction) -> str:
        return term_text(v, "x", e)


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


def _from_terms(terms: dict) -> Polynomial:
    """The polynomial with these nonzero terms, built without re-validating them."""
    out = object.__new__(Polynomial)
    out.parent = None
    out.terms = terms
    return out


def from_dense(coeffs) -> Polynomial:
    """The polynomial with these coefficients, built without re-validating them."""
    return _from_terms(_sparse(coeffs))


def _row(rows: dict[int, tuple], n: int, interleaved: bool = False) -> tuple:
    """Row n of a family table, growing the table from its top row up to n.

    Every member has the parity of its index, so row i holds only the
    coefficients of x**e for e = i % 2, i % 2 + 2, ..., i.  Row i is
    x*P_(i-1) - P_(i-2), plus x for odd i and -1 for even i in the
    interleaved (A) family; x*P_(i-1) is row i-1 itself for odd i and row
    i-1 after a 0 for even i.
    """
    row = rows.get(n)
    if row is None:
        if n < interleaved:  # T and S start at index 0, A at index 1
            raise ValueError(
                "the interleaved family starts at index 1" if interleaved
                else "index must be a natural number"
            )
        for i in range(len(rows) + interleaved, n + 1):
            shifted = rows[i - 1] if i % 2 else (0,) + rows[i - 1]
            new = [*map(sub, shifted, rows[i - 2]), shifted[-1]]
            if interleaved:
                new[0] += 1 if i % 2 else -1
            rows[i] = tuple(new)
        row = rows[n]
    return row


# Family tables: index -> row, seeded with the first two members and grown on
# demand by ``_row``.
_T_ROWS: dict[int, tuple] = {0: (2,), 1: (1,)}
_S_ROWS: dict[int, tuple] = {0: (1,), 1: (1,)}
_A_ROWS: dict[int, tuple] = {1: (1,), 2: (-1, 1)}


def _member(rows: dict[int, tuple], n: int, interleaved: bool = False) -> Polynomial:
    """The family member of index n, an ``integer``, from its row."""
    terms = zip(range(integer(n) % 2, n + 1, 2), _row(rows, n, interleaved))
    return _from_terms({e: v for e, v in terms if v})


@lru_cache(maxsize=None, typed=True)
def chebyshev_t(n: int) -> Polynomial:
    return _member(_T_ROWS, n)


@lru_cache(maxsize=None, typed=True)
def chebyshev_s(n: int) -> Polynomial:
    return _member(_S_ROWS, n)


@lru_cache(maxsize=None, typed=True)
def chebyshev_a(n: int) -> Polynomial:
    """Monic interleaved family A_n = S_n + A_(n-2); defined for n >= 1 only.

    Built from itself: A_n = x*A_(n-1) - A_(n-2) + (x for odd n, -1 for
    even n), so no S polynomial is needed.
    """
    return _member(_A_ROWS, n, interleaved=True)


@lru_cache(maxsize=None)
def _low_terms(order: int) -> tuple[tuple[int, int], ...]:
    """The (exponent, coefficient) pairs of T_order below its leading term."""
    return tuple(zip(range(order % 2, order, 2), _row(_T_ROWS, order)))


class _ChebyshevFormFields(NamedTuple):
    order: int
    columns: tuple[Polynomial, ...]


class ChebyshevForm(_ChebyshevFormFields):
    """Canonical form p(x) = sum_{j<N} columns[j](T_N(x)) * x**j.

    ``columns[j]`` is a polynomial in one variable standing for T_N(x).
    The order N is a positive ``linear.integer`` and there are exactly N
    columns, each a ``Polynomial``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__, as is _replace

    def __new__(cls, order: int, columns):
        self = super().__new__(cls, order, columns)
        if integer(order) < 1:
            raise ValueError("order must be positive")
        for col in self.columns:
            instance(col, Polynomial)
        if len(self.columns) != order:
            raise ValueError(f"order {order} needs {order} columns, got {len(self.columns)}")
        return self

    def substitute(self) -> Polynomial:
        """Expand back to a plain polynomial (round-trip oracle).

        Horner's rule on the rows R_k = sum_j c_(j,k) x**j of sum_k R_k * T_N**k,
        undoing ``chebyshev_reduce``'s divisions: q*T_N + R_k is R_k followed
        by q's coefficients, plus q times T_N's terms below x**N.
        """
        order = self.order
        low = _low_terms(order)
        rows: list[list] = []
        for j, col in enumerate(self.columns):
            for k, v in col.terms.items():
                if k >= len(rows):
                    rows.extend([0] * order for _ in range(k + 1 - len(rows)))
                rows[k][j] = v
        out: list = []
        for row in reversed(rows):
            quotient, out = out, row + out
            for m, c in enumerate(quotient):
                if c:
                    for t, v in low:
                        out[m + t] += c * v
        return from_dense(out)


def chebyshev_reduce(p: Polynomial, order: int) -> ChebyshevForm:
    """Rewrite p over the basis x**j (j < order) with T_order-coefficients.

    Works by repeated division by T_order, which is monic: p = q*T + r_0,
    q = q'*T + r_1, ..., and column j collects the x**j terms of the r_k.
    Each division is synthetic division of a coefficient list, from the
    top degree down, by T_order's terms below x**order; the terms of r_k
    go straight into the column dicts.  ``order`` is a positive ``linear.integer``.
    """
    if integer(order) < 1:
        raise ValueError("order must be positive")
    rest = dense(instance(p, Polynomial))
    low = _low_terms(order)
    columns: list[dict] = [{} for _ in range(order)]
    k = 0
    while rest:
        for m in range(len(rest) - 1, order - 1, -1):
            c = rest[m]
            if c:
                shift = m - order
                for t, v in low:
                    rest[shift + t] -= c * v
        for j, v in enumerate(rest[:order]):
            if v:
                columns[j][k] = v
        rest = rest[order:]  # the quotient: each rest[m] above was its digit
        k += 1
    # the form is valid by construction; build it without re-checking it
    return tuple.__new__(ChebyshevForm, (order, tuple(map(_from_terms, columns))))
