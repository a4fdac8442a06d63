"""Exact linear algebra shared by the layers.

``accumulate`` is the add-and-prune step behind every sparse sum in the
package.  ``SparseCombination`` holds the basis-independent arithmetic of
``OqElement``, ``QTElement`` and ``Polynomial``.  ``row_reduce`` is the one
Gauss-Jordan elimination over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

# Operators copied into each subclass's own namespace, so that a class can
# be instrumented or patched on its own (perfbench/tracer.py wraps the
# methods it finds in ``vars(cls)``).
_PER_CLASS_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__",
)


def accumulate(acc: dict, key, value) -> None:
    """Add ``value`` to ``acc[key]`` in place; drop the key if the sum is zero."""
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class SparseCombination:
    """Linear combination sum_k terms[k] * basis(k) with no zero coefficients.

    ``parent`` is the structure the basis belongs to (an algebra, a torus,
    or None); elements with different parents do not mix.  Subclasses
    provide:

    * ``_identity``: the key of the unit basis element;
    * ``_mismatch``: the error message for mixing parents;
    * ``_coerce(value)``: a plain scalar as a coefficient, None otherwise
      (by default through the parent's scalar ring);
    * ``_format_term(key, coeff)``: one term of ``repr``;
    * ``_mul_terms(other)``: the terms of the product of two elements.
    """

    __slots__ = ("parent", "terms")
    _mismatch = "elements from different parents"

    def __init__(self, parent, terms: dict):
        self.parent = parent
        self.terms = terms

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in _PER_CLASS_OPERATORS:
            setattr(cls, name, getattr(cls, name))

    def _new(self, terms: dict):
        out = object.__new__(type(self))
        out.parent = self.parent
        out.terms = terms
        return out

    def _check_same(self, other: "SparseCombination"):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError(self._mismatch)

    def _coerce(self, value):
        return self.parent.ring.coerce(value)

    def _as_element(self, value):
        """``value`` as an element of this parent, or None if it is foreign."""
        if isinstance(value, type(self)):
            return value
        s = self._coerce(value)
        if s is None:
            return None
        return self._new({self._identity: s} if s else {})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list:
        return sorted(self.terms)

    def coefficient(self, key):
        return self.terms.get(key, self._coerce(0))

    # -- linear structure --------------------------------------------------------

    def add_all(self, parts: Iterable["SparseCombination"]):
        """This element plus every element of ``parts``, summed in one dict."""
        acc = dict(self.terms)
        for part in parts:
            self._check_same(part)
            for k, v in part.terms.items():
                accumulate(acc, k, v)
        return self._new(acc)

    def __add__(self, other):
        other = self._as_element(other)
        if other is None:
            return NotImplemented
        return self.add_all((other,))

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- products ------------------------------------------------------------------

    def __mul__(self, other):
        s = self._coerce(other)
        if s is not None:
            if not s:
                return self._new({})
            return self._new({k: v * s for k, v in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same(other)
        return self._new(self._mul_terms(other))

    __rmul__ = __mul__  # only plain scalars reach it, and they commute

    def __pow__(self, n: int):
        """Power by repeated squaring; n must be a natural number."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self._new({self._identity: self._coerce(1)})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparison and display ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = self._as_element(other)
        if other is None:
            return NotImplemented
        return self.parent == other.parent and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            self._format_term(k, self.terms[k]) for k in sorted(self.terms, reverse=True)
        )


def row_reduce(
    matrix: Sequence[Sequence],
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form of a rational matrix (Gauss-Jordan).

    Returns ``(rows, pivots, det)``: the reduced rows (pivot entries 1,
    zero rows last), the pivot column of each nonzero row in order, and
    the determinant, which is 0 unless the matrix is square and invertible.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    det = Fraction(1)
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        lead = rows[r][c]
        det *= lead
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if not r == len(rows) == width:
        det = Fraction(0)
    return rows, pivots, det
