"""Exact coefficient arithmetic for a quantum parameter and its square root.

Every computation in this library happens over one of two coefficient rings,
both with exact rational arithmetic (no floats anywhere):

* root-of-unity mode: the cyclotomic field Q[t]/(Phi_N(t)) for odd N >= 1,
  where the class of t is a primitive N-th root of unity ``zeta``.  We take
  ``zeta`` as the square root of the quantum parameter, so q = zeta**2 also
  has exact order N (N is odd).
* generic mode: Laurent polynomials Q[v, 1/v] in a formal square root v,
  with q = v**2.  Nothing collapses here, which makes this mode useful as a
  stress test for rewriting identities that should hold before
  specialisation.

Scalars are immutable and tagged with their ring; mixing rings raises.
Python ints and Fractions coerce into either ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .linear import accumulate

Rational = Union[int, Fraction]

ROOT_OF_UNITY = "root-of-unity"
GENERIC = "generic"


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (lists, index = degree)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coefficients(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by exact division: x**n - 1 divided by the product of Phi_d
    over the proper divisors d of n.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_coefficients(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_divide_exact(num, den))


class ScalarRing:
    """Handle for one of the two coefficient rings.

    Use :meth:`root_of_unity` or :meth:`generic` to build one.  Two handles
    with the same mode and order are interchangeable.
    """

    def __init__(self, mode: str, order: int | None = None):
        if mode == ROOT_OF_UNITY:
            if order is None or order < 1 or order % 2 == 0:
                raise ValueError("root-of-unity mode needs an odd order N >= 1")
            self.mode = mode
            self.order = order
            phi = cyclotomic_coefficients(order)
            self._phi = phi
            self._degree = len(phi) - 1
            self._zeta_cache: dict[int, tuple[Fraction, ...]] = {}
        elif mode == GENERIC:
            if order is not None:
                raise ValueError("generic mode takes no order")
            self.mode = mode
            self.order = None
        else:
            raise ValueError(f"unknown scalar mode {mode!r}")

    @classmethod
    def root_of_unity(cls, order: int) -> "ScalarRing":
        return cls(ROOT_OF_UNITY, order)

    @classmethod
    def generic(cls) -> "ScalarRing":
        return cls(GENERIC)

    # -- basic constructors -------------------------------------------------

    def from_rational(self, value: Rational) -> "Scalar":
        value = Fraction(value)
        if self.mode == ROOT_OF_UNITY:
            rep = (value,) + (Fraction(0),) * (self._degree - 1)
            return Scalar(self, rep)
        return Scalar(self, ((0, value),) if value else ())

    def coerce(self, value) -> "Scalar | None":
        """``value`` as a scalar of this ring if it is a Scalar, int or Fraction."""
        if isinstance(value, Scalar):
            if value.ring is not self and value.ring != self:
                raise ValueError("scalars from different rings")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        return None

    @property
    def zero(self) -> "Scalar":
        return self.from_rational(0)

    @property
    def one(self) -> "Scalar":
        return self.from_rational(1)

    def zeta_pow(self, m: int) -> "Scalar":
        """The scalar zeta**m (root mode) or v**m (generic mode)."""
        if self.mode == GENERIC:
            return Scalar(self, ((m, Fraction(1)),))
        m %= self.order
        rep = self._zeta_cache.get(m)
        if rep is None:
            coeffs = [Fraction(0)] * (m + 1)
            coeffs[m] = Fraction(1)
            rep = self._reduce(coeffs)
            self._zeta_cache[m] = rep
        return Scalar(self, rep)

    def q_pow(self, m: int) -> "Scalar":
        """The scalar q**m where q = zeta**2 (resp. v**2)."""
        return self.zeta_pow(2 * m)

    # -- internal representation helpers ------------------------------------

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        """Reduce a rational polynomial in zeta modulo Phi_N; fixed length."""
        d = self._degree
        phi = self._phi
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = Fraction(0)
                base = i - d
                for j in range(d):
                    if phi[j]:
                        coeffs[base + j] -= c * phi[j]
        coeffs = coeffs[:d]
        coeffs.extend([Fraction(0)] * (d - len(coeffs)))
        return tuple(coeffs)

    def is_q_power(self, s: "Scalar", allow_sign: bool = False) -> bool:
        """Whether s equals q**m for some integer m (optionally +-q**m)."""
        if s.ring != self:
            raise ValueError("scalar from a different ring")
        if self.mode == GENERIC:
            if len(s._rep) != 1:
                return False
            (exp, coeff), = s._rep
            if exp % 2 != 0:
                return False
            return coeff == 1 or (allow_sign and coeff == -1)
        for m in range(self.order):
            cand = self.q_pow(m)
            if s == cand:
                return True
            if allow_sign and s == -cand:
                return True
        return False

    # -- structural equality --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScalarRing)
            and self.mode == other.mode
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.order))

    def __repr__(self) -> str:
        if self.mode == ROOT_OF_UNITY:
            return f"ScalarRing(root_of_unity, N={self.order})"
        return "ScalarRing(generic)"


class Scalar:
    """Immutable element of a :class:`ScalarRing`.

    Root mode representation: tuple of Fractions, coefficients of
    1, zeta, ..., zeta**(deg Phi_N - 1).  Generic mode: tuple of
    (exponent, coefficient) pairs sorted by exponent, zeros dropped.
    """

    __slots__ = ("ring", "_rep")

    def __init__(self, ring: ScalarRing, rep):
        self.ring = ring
        if ring.mode == GENERIC:
            rep = tuple(sorted((e, c) for e, c in rep if c))
        self._rep = rep

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        # a root-mode rep holds coefficients, a generic one (exponent, coeff) pairs
        return any(self._rep)

    def is_one(self) -> bool:
        return self == self.ring.one

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        if self.ring.mode == GENERIC:
            acc = dict(self._rep)
            for e, c in other._rep:
                accumulate(acc, e, c)
            return Scalar(self.ring, acc.items())
        return Scalar(self.ring, tuple(a + b for a, b in zip(self._rep, other._rep)))

    __radd__ = __add__

    def __neg__(self):
        if self.ring.mode == GENERIC:
            return Scalar(self.ring, tuple((e, -c) for e, c in self._rep))
        return Scalar(self.ring, tuple(-a for a in self._rep))

    def __sub__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        if self.ring.mode == GENERIC:
            acc: dict[int, Fraction] = {}
            for e1, c1 in self._rep:
                for e2, c2 in other._rep:
                    accumulate(acc, e1 + e2, c1 * c2)
            return Scalar(self.ring, acc.items())
        d = self.ring._degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self._rep):
            if a:
                for j, b in enumerate(other._rep):
                    if b:
                        prod[i + j] += a * b
        return Scalar(self.ring, self.ring._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; generic mode inverts monomials only."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.ring.mode == GENERIC:
            if len(self._rep) != 1:
                raise ZeroDivisionError(
                    "only monomials are invertible in generic mode"
                )
            (e, c), = self._rep
            return Scalar(self.ring, ((-e, Fraction(1) / c),))
        # extended Euclid in Q[t] against Phi_N (irreducible over Q)
        phi = [Fraction(c) for c in self.ring._phi]
        r0, r1 = phi, list(self._rep)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and r1[-1] == 0:
                r1.pop()
            q, rem = _rational_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not 1")
        lead = r0[0]
        inv = [c / lead for c in s0]
        return Scalar(self.ring, self.ring._reduce([Fraction(c) for c in inv]))

    def __truediv__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self._rep == other._rep

    def __hash__(self) -> int:
        return hash((self.ring, self._rep))

    def __repr__(self) -> str:
        if self.ring.mode == GENERIC:
            if not self._rep:
                return "0"
            parts = []
            for e, c in self._rep:
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append(f"{c}*v" if c != 1 else "v")
                else:
                    parts.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
            return " + ".join(parts)
        parts = []
        for i, c in enumerate(self._rep):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts) if parts else "0"


def _rational_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    if dd < 0 or den[-1] == 0:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[-1]
        if c:
            q[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return q, num[:dd] if dd else [Fraction(0)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out
