"""Exact coefficient arithmetic for a quantum parameter and its square root.

Every computation in this library happens over one of two coefficient rings,
both with exact rational arithmetic (no floats anywhere):

* root-of-unity mode: the cyclotomic field Q[t]/(Phi_N(t)) for odd N >= 1,
  where the class of t is a primitive N-th root of unity ``zeta``.  We take
  ``zeta`` as the square root of the quantum parameter, so q = zeta**2 also
  has exact order N (N is odd).  A scalar is a tuple of Python int
  numerators, the coefficients of 1, zeta, ..., zeta**(d-1) (d = deg Phi_N),
  over one positive int denominator, in lowest terms.  A scalar known by
  construction to be c * zeta**k carries that as a tag, and its products
  read zeta**k from a table of the N root powers instead of convolving;
  its numerators, and those of its products with untagged scalars, are
  built only when something reads them.
* generic mode: Laurent polynomials Q[v, 1/v] in a formal square root v,
  with q = v**2 and ``fractions.Fraction`` coefficients.  Nothing collapses
  here, which makes this mode useful as a stress test for rewriting
  identities that should hold before specialisation, and as an exactness
  oracle for the root-mode arithmetic.

Scalars are immutable and tagged with their ring; mixing rings raises.
Python ints and Fractions coerce into either ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

from .linear import accumulate, convolve, integer_solve, power

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
            den = convolve(den, cyclotomic_coefficients(d))
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
            d = len(phi) - 1
            self._degree = d
            # Phi_N is monic, so zeta**d = -sum phi[j] zeta**j over these j < d
            self._phi_low = tuple((j, c) for j, c in enumerate(phi[:d]) if c)
            # the root-power table: self._powers[m] is zeta**m, 0 <= m < N
            self._powers = [
                Scalar(self, (self._reduce([0] * m + [1] + [0] * d), 1), (m, 1, 1))
                for m in range(order)
            ]
            self._exponents = {s._rep: m for m, s in enumerate(self._powers)}
            self.one = self._powers[0]
            self.zero = Scalar(self, None, (0, 0, 1))
        elif mode == GENERIC:
            if order is not None:
                raise ValueError("generic mode takes no order")
            self.mode = mode
            self.order = None
            self.one = Scalar(self, ((0, Fraction(1)),))
            self.zero = Scalar(self, ())
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
        if not isinstance(value, int):
            value = Fraction(value)
        if self.mode == ROOT_OF_UNITY:
            return self._monomial(0, value.numerator, value.denominator)
        return Scalar(self, ((0, Fraction(value)),) if value else ())

    def coerce(self, value) -> "Scalar | None":
        """``value`` as a scalar of this ring if it is a Scalar, int or Fraction."""
        if isinstance(value, Scalar):
            if value.ring is not self and value.ring != self:
                raise ValueError("scalars from different rings")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        return None

    def from_power_counts(self, counts, step: int) -> "Scalar":
        """The scalar sum_i counts[i] * zeta**(step * i) (v**(step * i) in
        generic mode), for int counts.

        In root mode the result is tagged when it is c * zeta**k, as read
        off the counts once they are folded modulo zeta**N = 1, or when it
        reduces to some zeta**m.
        """
        if self.mode == GENERIC:
            return Scalar(self, [(step * i, Fraction(c)) for i, c in enumerate(counts) if c])
        n = self.order
        coeffs = [0] * n
        for i, c in enumerate(counts):
            if c:
                coeffs[step * i % n] += c
        if coeffs.count(0) == n - 1:
            c = next(filter(None, coeffs))
            return self._monomial(coeffs.index(c), c, 1)
        rep = (self._reduce(coeffs), 1)
        m = self._exponents.get(rep)
        return Scalar(self, rep) if m is None else self._powers[m]

    def zeta_pow(self, m: int) -> "Scalar":
        """The scalar zeta**m (root mode) or v**m (generic mode)."""
        if self.mode == GENERIC:
            return Scalar(self, ((m, Fraction(1)),))
        return self._powers[m % self.order]

    def q_pow(self, m: int) -> "Scalar":
        """The scalar q**m where q = zeta**2 (resp. v**2)."""
        return self.zeta_pow(2 * m)

    # -- root-mode constructors and reduction -----------------------------------

    def _monomial(self, k: int, c: int, den: int) -> "Scalar":
        """The scalar (c / den) * zeta**k, for ints c and den > 0."""
        k %= self.order
        if den != 1:
            g = gcd(c, den)
            if g != 1:
                c //= g
                den //= g
        if c == 1 and den == 1:
            return self._powers[k]
        return Scalar(self, None, (k, c, den))

    def _lowest(self, nums: tuple[int, ...], den: int) -> "Scalar":
        """The scalar with numerators ``nums`` over ``den`` > 0, in lowest terms."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple([x // g for x in nums])
        return Scalar(self, (nums, den))

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Numerators of sum coeffs[i] * zeta**i over 1, zeta, ..., zeta**(d-1).

        ``coeffs`` needs at least d entries and is overwritten.
        """
        n, d = self.order, self._degree
        for i in range(len(coeffs) - 1, n - 1, -1):  # zeta**N = 1
            if coeffs[i]:
                coeffs[i - n] += coeffs[i]
        for i in range(min(len(coeffs), n) - 1, d - 1, -1):  # Phi_N(zeta) = 0
            c = coeffs[i]
            if c:
                base = i - d
                for j, p in self._phi_low:
                    coeffs[base + j] -= c * p
        return tuple(coeffs[:d])

    def root_exponent(self, s: "Scalar") -> int | None:
        """The m with s == zeta**m, 0 <= m < N (v**m in generic mode), or None."""
        if s.ring != self:
            raise ValueError("scalar from a different ring")
        if self.mode == GENERIC:
            if len(s._rep) == 1 and s._rep[0][1] == 1:
                return s._rep[0][0]
            return None
        return self._exponents.get(s._rep)

    def is_q_power(self, s: "Scalar") -> bool:
        """Whether s equals q**m for some integer m."""
        m = self.root_exponent(s)
        # N is odd, so every power of zeta is a power of q = zeta**2
        return m is not None and (self.mode == ROOT_OF_UNITY or m % 2 == 0)

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

    Root mode: ``_rep`` is ``(nums, den)``, a tuple of d = deg Phi_N int
    numerators (the coefficients of 1, zeta, ..., zeta**(d-1)) over one int
    ``den`` > 0 with gcd(den, *nums) == 1, so equal values have equal
    ``_rep`` and hash.  ``_mono`` is None or a tag ``(k, c, den)`` with
    0 <= k < N, an int c and the same ``den``, gcd(c, den) == 1, meaning
    the scalar is exactly (c / den) * zeta**k.  The tag is set on the ring's
    zero, one and root powers, on rationals, on negatives and products of
    tagged scalars, on inverses of tagged scalars, and on sums of two tagged
    scalars with the same k.

    A tagged scalar's numerators are lazy: ``_rep`` is built from the tag
    on its first read (``__getattr__``) and then kept.  Dense arithmetic,
    equality with an untagged scalar, hashing, ``repr`` and
    ``ScalarRing.root_exponent`` read it; products, inverses, negatives,
    truth values and sums with the same k of tagged scalars read the tag
    alone.  Two tagged scalars are equal when their tags are, or when both
    are zero (c == 0, whatever k): zeta**m is irrational for 0 < m < N, as
    N is odd, so (c / den) * zeta**k with c != 0 determines k, c and den.
    Hashing always reads ``_rep``, so equal values hash alike.

    A product of a tagged and an untagged scalar is lazy in the same way:
    it is untagged, keeps the tag and the untagged factor in ``_lazy``, and
    shifts, reduces and scales the factor's numerators on the first read of
    its ``_rep``, which clears ``_lazy``.  Every other untagged scalar has
    ``_lazy`` None, and a tagged one leaves it unset.  The factor kept is
    never itself an unbuilt lazy product: a tag times one multiplies the two
    tags.  A product that nothing reads, such as a new term of a sparse sum
    whose coefficients are never compared, costs no numerator arithmetic.

    Generic mode: ``_rep`` is a tuple of (exponent, Fraction) pairs sorted
    by exponent, zeros dropped; ``_mono`` is None.
    """

    __slots__ = ("ring", "_rep", "_mono", "_lazy")

    def __init__(self, ring: ScalarRing, rep, mono: tuple[int, int, int] | None = None):
        """``rep`` may be None for a tagged scalar or a lazy product: its
        numerators stay unbuilt.  The caller of a lazy product sets ``_lazy``."""
        self.ring = ring
        self._mono = mono
        if rep is None:
            return
        self._lazy = None
        if ring.mode == GENERIC:
            rep = tuple(sorted((e, c) for e, c in rep if c))
        self._rep = rep

    def __getattr__(self, name: str):
        # only the unbuilt ``_rep`` slot of a tagged scalar or of a lazy
        # product is ever missing
        if name != "_rep":
            raise AttributeError(name)
        ring = self.ring
        if self._mono is not None:
            k, c, den = self._mono
            # zeta**k is a unit of Z[zeta]: its numerators have no common factor
            rep = (tuple([c * x for x in ring._powers[k]._rep[0]]), den)
        else:
            # c * zeta**k times dense: shift by k, reduce mod Phi_N, scale by c
            (k, c, den), dense = self._lazy
            nums, dense_den = dense._rep
            if k:
                nums = ring._reduce([0] * k + list(nums))
            if c != 1:
                nums = tuple([c * x for x in nums])
            rep = ring._lowest(nums, den * dense_den)._rep
            self._lazy = None
        self._rep = rep
        return rep

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        if self._mono is not None:
            return self._mono[1] != 0
        if self.ring.mode == GENERIC:
            return bool(self._rep)
        return any(self._rep[0])

    def is_one(self) -> bool:
        return self == self.ring.one

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        ring = self.ring
        if type(other) is not Scalar or other.ring is not ring:
            other = ring.coerce(other)
            if other is None:
                return NotImplemented
        if ring.mode == GENERIC:
            acc = dict(self._rep)
            for e, c in other._rep:
                accumulate(acc, e, c)
            return Scalar(ring, acc.items())
        ma, mb = self._mono, other._mono
        if ma is not None and mb is not None and ma[0] == mb[0]:
            # c1/d1 zeta**k + c2/d2 zeta**k stays a tagged monomial
            k, c1, d1 = ma
            _, c2, d2 = mb
            return ring._monomial(k, c1 * d2 + c2 * d1, d1 * d2)
        (a, da), (b, db) = self._rep, other._rep
        if da == db:
            return ring._lowest(tuple([x + y for x, y in zip(a, b)]), da)
        return ring._lowest(tuple([x * db + y * da for x, y in zip(a, b)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.mode == GENERIC:
            return Scalar(self.ring, tuple((e, -c) for e, c in self._rep))
        mono = self._mono
        if mono is not None:
            k, c, den = mono
            return Scalar(self.ring, None, (k, -c, den))
        nums, den = self._rep
        return Scalar(self.ring, (tuple([-x for x in nums]), den))

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
        ring = self.ring
        if type(other) is not Scalar or other.ring is not ring:
            other = ring.coerce(other)
            if other is None:
                return NotImplemented
        if ring.mode == GENERIC:
            acc: dict[int, Fraction] = {}
            for e1, c1 in self._rep:
                for e2, c2 in other._rep:
                    accumulate(acc, e1 + e2, c1 * c2)
            return Scalar(ring, acc.items())
        ma, mb = self._mono, other._mono
        if ma is None:
            if mb is None:
                # dense times dense: 2d - 1 >= d entries, reduced mod Phi_N
                (a, da), (b, db) = self._rep, other._rep
                return ring._lowest(ring._reduce(convolve(a, b)), da * db)
            tagged, dense = other, self
        elif mb is None:
            tagged, dense = self, other
        else:
            # both tagged: the product is a tag, its numerators stay unbuilt
            return ring._monomial(ma[0] + mb[0], ma[1] * mb[1], ma[2] * mb[2])
        if dense._lazy is not None:
            # (t1) * ((t2) * x) is (t1 t2) * x: a lazy product never nests
            (k, c, den), dense = dense._lazy
            tagged = ring._monomial(tagged._mono[0] + k, tagged._mono[1] * c, tagged._mono[2] * den)
        if tagged._mono == (0, 1, 1):
            return dense
        # numerators built on first read: see __getattr__
        out = Scalar(ring, None)
        out._lazy = (tagged._mono, dense)
        return out

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; generic mode inverts monomials only."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        ring = self.ring
        if ring.mode == GENERIC:
            if len(self._rep) != 1:
                raise ZeroDivisionError(
                    "only monomials are invertible in generic mode"
                )
            (e, c), = self._rep
            return Scalar(ring, ((-e, Fraction(1) / c),))
        if self._mono is not None:
            # ((c / den) * zeta**k)**-1 = (den / c) * zeta**-k
            k, c, den = self._mono
            return ring._monomial(-k, den if c > 0 else -den, abs(c))
        nums, den = self._rep
        # solve nums * y = 1 over 1, zeta, ..., zeta**(d-1); column j of the
        # system holds the numerators of nums * zeta**j.  The solver returns
        # x = det * y, and the inverse is den * y = den * x / det
        d = ring._degree
        cols = [nums]
        for _ in range(d - 1):
            cols.append(ring._reduce([0, *cols[-1]]))
        det, x = integer_solve([[c[i] for c in cols] + [int(i == 0)] for i in range(d)])
        if not det:
            raise ArithmeticError("multiplication by the scalar is not invertible")
        # _lowest wants a positive denominator
        if det < 0:
            det, den = -det, -den
        return ring._lowest(tuple([den * row[0] for row in x]), det)

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
        return power(self, n, self.ring.one)

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        ma, mb = self._mono, other._mono
        if ma is not None and mb is not None:
            return ma == mb or (ma[1] == 0 and mb[1] == 0)
        return self._rep == other._rep

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
        nums, den = self._rep
        parts = []
        for i, n in enumerate(nums):
            if n:
                c = Fraction(n, den)
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts) if parts else "0"
