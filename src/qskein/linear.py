"""Exact linear algebra shared by the layers.

``accumulate`` is the add-and-prune step behind the sparse sums: addition of
``SparseCombination`` elements, generic-mode scalar arithmetic, the bigon
word rewriting and the quantum-torus product.  The bigon structured
product, ``OqAlgebra._mul_into``, merges its keys itself.  The Chebyshev
layer's products, Horner's rule, division by T_N and family tables run on
dense coefficient lists instead.  ``convolve`` is the one product of dense
coefficient lists: the Chebyshev layer's, the root-mode product of two
dense scalar factors and the cyclotomic polynomials'.
``SparseCombination`` holds the basis-independent arithmetic of
``OqElement``, ``QTElement`` and ``Polynomial``.  ``integer_solve`` is the
one Gauss-Jordan elimination over the integers; it is fraction-free, so its
callers get integer numerators over the determinant, never a ``Fraction``.
``power`` is the one square-and-multiply, for scalars and elements alike.
``term_text`` spells one term c*var^e of a scalar's or a polynomial's
``repr``.

Input rules, each stated once: ``integer`` takes an int that is not a bool;
``instance`` takes an object of a named class (a ``Polynomial``, a
``Scalar``, an element); ``odd_order``, the rule for the order N of zeta,
an odd such int >= 1; a coefficient is an ``integer``, a ``Fraction`` or a
scalar of the ring in use (``ScalarRing.coerce``, ``Polynomial._coerce``),
and ``exact`` applies that rule at an entry point.  Floats, strings and bools raise TypeError, and so
does an object of another class where ``instance`` applies.
"""

from __future__ import annotations

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


def integer(value) -> int:
    """``value`` itself if it is an int and not a bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def instance(value, cls: type):
    """``value`` itself if it is an instance of ``cls``; TypeError naming both otherwise."""
    if not isinstance(value, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise TypeError(f"expected {article} {name}, got {type(value).__name__} {value!r}")
    return value


def odd_order(value) -> int:
    """``value`` itself if it is an odd ``integer`` >= 1; TypeError or ValueError otherwise."""
    if integer(value) < 1 or value % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {value}")
    return value


def exact(coerce, value):
    """``coerce(value)`` for a coefficient rule; TypeError where it gives None."""
    out = coerce(value)
    if out is None:
        raise TypeError(f"expected an exact coefficient, got {value!r}")
    return out


def term_text(c, var: str, e: int) -> str:
    """One term c*var^e of a ``repr``: c alone when e == 0, no factor 1 otherwise."""
    if e == 0:
        return str(c)
    monomial = var if e == 1 else f"{var}^{e}"
    return monomial if c == 1 else f"{c}*{monomial}"


def convolve(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists; zero coefficients are skipped on both sides.

    Returns len(a) + len(b) - 1 entries, or [] when either operand is empty.
    """
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def power(base, n: int, one):
    """base**n for a natural number n by square-and-multiply, starting from ``one``."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class SparseCombination:
    """Linear combination sum_k terms[k] * basis(k) with no zero coefficients.

    ``parent`` is the structure the basis belongs to (an algebra, a torus,
    or None); elements with different parents do not mix.  Subclasses
    provide:

    * ``_identity``: the key of the unit basis element;
    * ``_mismatch``: the error message for mixing parents;
    * ``_coerce(value)``: the coefficient rule, a plain scalar as a
      coefficient, None otherwise (by default ``ScalarRing.coerce``);
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
        other = self._as_element(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._as_element(other)
        if other is None:
            return NotImplemented
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
        """Power by repeated squaring; n must be a natural ``integer``."""
        if integer(n) < 0:
            raise ValueError(f"negative exponent {n}")
        return power(self, n, self._new({self._identity: self._coerce(1)}))

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


def integer_solve(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Solve A x = det(A) B for integer rows [A | B], A square (n rows, n columns).

    Returns ``(det, x)``: x is the integer matrix adj(A) B when A is
    invertible, and det and x are 0 when A is singular.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): with pivot p
    in column c and previous pivot ``prev``, every other row becomes
    (p * row - row[c] * pivot_row) / prev.  Each division is exact, since
    every entry stays a minor of [A | B] up to sign, and the left block ends
    as the last pivot times the identity.  Columns up to c are never read
    again and are left stale.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    sign = prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return 0, [[0] * (len(row) - n) for row in rows]
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        lead = rows[c]
        p = lead[c]
        tail = lead[c + 1:]
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and (f or p != prev):  # else the row stays as it is
                row[c + 1:] = [(p * a - f * b) // prev for a, b in zip(row[c + 1:], tail)]
        prev = p
    return sign * prev, [[sign * v for v in row[n:]] for row in rows]
