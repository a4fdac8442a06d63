"""Exact coefficient arithmetic for a quantum parameter and its square root.

Every computation in this library happens over one of two coefficient rings,
both with exact rational arithmetic (no floats anywhere), named by its order:

* root-of-unity mode, order N (``linear.odd_order``): the cyclotomic field
  Q[t]/(Phi_N(t)), where the class of t is a primitive N-th root of unity
  ``zeta``.  We take ``zeta`` as the square root of the quantum parameter,
  so q = zeta**2 also has exact order N (N is odd).  A scalar is a tuple of
  Python int numerators, the coefficients of 1, zeta, ..., zeta**(d-1)
  (d = deg Phi_N), over one positive int denominator, in lowest terms.
  Every scalar is held as a tag c * zeta**k times an optional dense
  factor: products multiply the tags, and convolve only when both sides
  have a factor; the numerators are built only when something reads them.
  Reduction modulo Phi_N adds c times a stored row, zeta**i reduced, for
  each nonzero entry c at d <= i < N.
* generic mode, order None: Laurent polynomials Q[v, 1/v] in a formal
  square root v, with q = v**2 and ``fractions.Fraction`` coefficients.
  Nothing collapses here, which makes this mode useful as a stress test
  for rewriting identities that should hold before specialisation, and as
  an exactness oracle for the root-mode arithmetic.

Scalars are immutable and tagged with their ring; mixing rings raises.
Python ints (not bools) and Fractions coerce into either ring; floats and
strings do not (``ScalarRing.coerce``); root-power exponents and the
exponent of ``**`` follow ``linear.integer``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .linear import (
    accumulate,
    convolve,
    exact,
    instance,
    integer,
    integer_solve,
    odd_order,
    power,
    term_text,
)

# the identity tag: 1 * zeta**0, carried by one and by every dense scalar
_ONE = (0, 1, 1)


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


def _lowest(nums: tuple[int, ...], den: int) -> tuple:
    """``(nums, den)`` in lowest terms, for ``den`` > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([x // g for x in nums])
    return nums, den


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
    """Handle for a coefficient ring, named by its order alone (None: generic).

    The order follows ``linear.odd_order``; :meth:`root_of_unity` and
    :meth:`generic` name the two modes.  Two handles with the same order are
    interchangeable.

    A root-mode ring builds each zeta**m, m < N, once, as zeta times
    zeta**(m-1) with zeta**d = -sum phi[j] zeta**j substituted: the root-power
    table ``_powers``, whose rows m >= d are the fold table ``_reduce`` reads.
    """

    def __init__(self, order: int | None):
        self.order = order
        if order is not None:
            odd_order(order)
            phi = cyclotomic_coefficients(order)
            d = len(phi) - 1
            self._degree = d
            # Phi_N is monic, so zeta**d = -sum phi[j] zeta**j over j < d
            low = [-c for c in phi[:d]]
            rows, row = [], [1] + [0] * (d - 1)
            for _ in range(order):
                rows.append(tuple(row))
                top = row[-1]
                row = [0, *row[:-1]]
                if top:
                    row = [x + top * y for x, y in zip(row, low)]
            # the fold table: self._fold[i - d] is zeta**i, d <= i < N, as the
            # indices j of its numerators 1, of its numerators -1 and of the
            # rest, then the numerators r; each nonzero is listed once, as one
            # shared int j, and the +-1 ones (all but a few unless N has four
            # odd prime factors) fold with no products
            cols = list(range(d))
            self._fold = [
                (tuple(j for j, c in zip(cols, r) if c == 1),
                 tuple(j for j, c in zip(cols, r) if c == -1),
                 tuple(j for j, c in zip(cols, r) if c * c > 1), r)
                for r in rows[d:]
            ]
            # the root-power table: self._powers[m] is zeta**m, 0 <= m < N
            self._powers = [
                Scalar(self, (r, 1), (m, 1, 1) if m else _ONE) for m, r in enumerate(rows)
            ]
            self._exponents = {s._rep: m for m, s in enumerate(self._powers)}
            self.one = self._powers[0]
            self.zero = Scalar(self, None, (0, 0, 1))
        else:
            self.one = Scalar(self, ((0, Fraction(1)),))
            self.zero = Scalar(self, ())

    @classmethod
    def root_of_unity(cls, order: int) -> "ScalarRing":
        return cls(order)

    @classmethod
    def generic(cls) -> "ScalarRing":
        return cls(None)

    # -- basic constructors -------------------------------------------------

    def from_rational(self, value: int | Fraction) -> "Scalar":
        """The scalar of an int (not a bool) or a Fraction; TypeError otherwise."""
        if isinstance(value, Scalar):
            raise TypeError(f"expected an int or a Fraction, got a Scalar, {value!r}")
        return exact(self.coerce, value)

    def coerce(self, value) -> "Scalar | None":
        """The coefficient rule: a Scalar of this ring, or an int (not a bool) or
        a Fraction as one; ValueError for another ring's Scalar, else None."""
        if isinstance(value, Scalar):
            if value.ring is not self and value.ring != self:
                raise ValueError("scalars from different rings")
            return value
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            return None
        if self.order is None:
            return Scalar(self, ((0, Fraction(value)),) if value else ())
        return self._monomial(0, value.numerator, value.denominator)

    def from_power_counts(self, counts, step: int) -> "Scalar":
        """The scalar sum_i counts[i] * zeta**(step * i) (v**(step * i) in
        generic mode), for int counts.

        In root mode the result is tagged when it is c * zeta**k, as read
        off the counts once they are folded modulo zeta**N = 1, or when it
        reduces to some zeta**m.
        """
        n = self.order
        if n is None:
            return Scalar(self, [(step * i, Fraction(c)) for i, c in enumerate(counts) if c])
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
        """The scalar zeta**m (root mode) or v**m (generic mode), for an
        ``integer`` m."""
        if type(m) is not int:
            integer(m)
        if self.order is None:
            return Scalar(self, ((m, Fraction(1)),))
        return self._powers[m % self.order]

    def q_pow(self, m: int) -> "Scalar":
        """The scalar q**m where q = zeta**2 (resp. v**2), for an ``integer`` m."""
        if type(m) is not int:
            integer(m)
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

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Numerators of sum coeffs[i] * zeta**i over 1, zeta, ..., zeta**(d-1).

        Entries at i >= N fold onto i - N (zeta**N = 1); then each entry c
        at d <= i < N adds c times the fold table's row for zeta**i.
        ``coeffs`` needs at least d entries and is overwritten.
        """
        n, d = self.order, self._degree
        for i in range(len(coeffs) - 1, n - 1, -1):  # zeta**N = 1
            if coeffs[i]:
                coeffs[i - n] += coeffs[i]
        for c, (plus, minus, rest, row) in zip(coeffs[d:n], self._fold):  # Phi_N(zeta) = 0
            if c:
                for j in plus:
                    coeffs[j] += c
                for j in minus:
                    coeffs[j] -= c
                for j in rest:
                    coeffs[j] += c * row[j]
        return tuple(coeffs[:d])

    def root_exponent(self, s: "Scalar") -> int | None:
        """The m with s == zeta**m, 0 <= m < N (v**m in generic mode), or None."""
        if instance(s, Scalar).ring != self:
            raise ValueError("scalar from a different ring")
        if self.order is None:
            if len(s._rep) == 1 and s._rep[0][1] == 1:
                return s._rep[0][0]
            return None
        return self._exponents.get(s._rep)

    def is_q_power(self, s: "Scalar") -> bool:
        """Whether s equals q**m for some integer m."""
        m = self.root_exponent(s)
        # N is odd, so every power of zeta is a power of q = zeta**2
        return m is not None and (self.order is not None or m % 2 == 0)

    # -- structural equality --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarRing) and self.order == other.order

    def __hash__(self) -> int:
        return hash(("ScalarRing", self.order))

    def __repr__(self) -> str:
        if self.order is None:
            return "ScalarRing(generic)"
        return f"ScalarRing(root_of_unity, N={self.order})"


class Scalar:
    """Immutable element of a :class:`ScalarRing`.

    Root mode: a scalar is a tag ``_mono`` times a factor ``_base``.  The
    tag ``(k, c, den)``, with 0 <= k < N, ints c and den > 0 and
    gcd(c, den) == 1, is (c / den) * zeta**k.  The factor is None (the
    scalar is a monomial) or ``(nums, den)``: d = deg Phi_N int numerators,
    the coefficients of 1, zeta, ..., zeta**(d-1), over one int den > 0 with
    gcd(den, *nums) == 1.  ``_rep`` is the scalar's own ``(nums, den)``, so
    equal values have equal ``_rep`` and hash.  A dense scalar (a sum, an
    inverse, a product of two dense scalars) carries the identity tag
    ``_ONE`` = (0, 1, 1), that very tuple, and its ``_rep`` from the start;
    products test for the tag by identity.  ``_rep`` is a property over
    the slot ``_nums``, which holds None until it is built: every other
    scalar builds ``_rep`` on first read from its tag and factor, and keeps
    all three.  Tag and factor never change once set, so products reading
    them in any thread see one value.

    Products multiply the tags, and the factors only when both sides have
    one, so a chain of monomial products keeps one factor.  Truth values,
    negatives, and products, inverses and same-k sums of monomials read no
    numerators.  Two monomials are equal when their tags are, or when both
    are zero (c == 0, whatever k): zeta**m is irrational for 0 < m < N, as N
    is odd, so (c / den) * zeta**k with c != 0 determines k, c and den.
    Every other equality, hashing, dense arithmetic, ``repr`` and
    ``ScalarRing.root_exponent`` read ``_rep``.  A product that nothing
    reads, such as a new term of a sparse sum whose coefficients are never
    compared, costs no numerator arithmetic.

    Generic mode: ``_rep`` is a tuple of (exponent, Fraction) pairs sorted
    by exponent, zeros dropped; ``_mono`` and ``_base`` are None.
    """

    __slots__ = ("ring", "_nums", "_mono", "_base")

    def __init__(self, ring: ScalarRing, rep, mono: tuple | None = None, base: tuple | None = None):
        """Root mode: ``rep`` alone is a dense scalar; beside a tag it may be None."""
        self.ring = ring
        if mono is None:
            if ring.order is None:
                rep = tuple(sorted((e, c) for e, c in rep if c))
            else:
                mono, base = _ONE, rep
        self._mono = mono
        self._base = base
        self._nums = rep

    @property
    def _rep(self):
        rep = self._nums
        if rep is not None:
            return rep
        # only a tagged root-mode scalar leaves ``_nums`` unbuilt
        k, c, den = self._mono
        if self._base is None:
            # zeta**k is a unit of Z[zeta]: its numerators have no common factor
            rep = (tuple([c * x for x in self.ring._powers[k]._rep[0]]), den)
        else:
            # shift the factor by k, reduce mod Phi_N, scale by c.  zeta**k is a
            # unit of Z[zeta], so only c != +-1 or den != 1 can leave a common factor
            nums, base_den = self._base
            if k:
                nums = self.ring._reduce([0] * k + list(nums))
            if c != 1:
                nums = tuple([c * x for x in nums])
            if den != 1 or c * c != 1:
                nums, base_den = _lowest(nums, den * base_den)
            rep = (nums, base_den)
        self._nums = rep
        return rep

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        mono = self._mono
        if mono is None:
            return bool(self._rep)
        return mono[1] != 0 and (self._base is None or any(self._base[0]))

    def is_one(self) -> bool:
        return self == self.ring.one

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        ring = self.ring
        if type(other) is not Scalar or other.ring is not ring:
            other = ring.coerce(other)
            if other is None:
                return NotImplemented
        ma, mb = self._mono, other._mono
        if ma is None:  # generic mode
            acc = dict(self._rep)
            for e, c in other._rep:
                accumulate(acc, e, c)
            return Scalar(ring, acc.items())
        if ma[0] == mb[0] and self._base is None and other._base is None:
            # c1/d1 zeta**k + c2/d2 zeta**k stays a monomial
            return ring._monomial(ma[0], ma[1] * mb[2] + mb[1] * ma[2], ma[2] * mb[2])
        (a, da), (b, db) = self._rep, other._rep
        if da == db:
            return Scalar(ring, _lowest(tuple([x + y for x, y in zip(a, b)]), da))
        return Scalar(ring, _lowest(tuple([x * db + y * da for x, y in zip(a, b)]), da * db))

    __radd__ = __add__

    def __neg__(self):
        ring, mono, base = self.ring, self._mono, self._base
        if mono is None:  # generic mode
            return Scalar(ring, tuple((e, -c) for e, c in self._rep))
        k, c, den = mono
        if c == -1 and not k and den == 1:  # -(-x) takes the identity tag again
            return ring.one if base is None else Scalar(ring, base)
        return Scalar(ring, None, (k, -c, den), base)

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
        ma, mb = self._mono, other._mono
        if ma is None:  # generic mode
            acc: dict[int, Fraction] = {}
            for e1, c1 in self._rep:
                for e2, c2 in other._rep:
                    accumulate(acc, e1 + e2, c1 * c2)
            return Scalar(ring, acc.items())
        base, b = self._base, other._base
        if base is None:
            if b is None:
                # monomial times monomial: a tag, its numerators stay unbuilt
                return ring._monomial(ma[0] + mb[0], ma[1] * mb[1], ma[2] * mb[2])
            if ma is _ONE:  # one times x is x, with its numerators if built
                return other
            base = b
        elif b is None:
            if mb is _ONE:
                return self
        else:
            # factor times factor: 2d - 1 >= d entries, reduced mod Phi_N
            base = _lowest(ring._reduce(convolve(base[0], b[0])), base[1] * b[1])
        # the identity tag leaves the other tag as it is
        tag = mb if ma is _ONE else ma if mb is _ONE else ring._monomial(
            ma[0] + mb[0], ma[1] * mb[1], ma[2] * mb[2])._mono
        # a dense product keeps its numerators; any other builds them on first read
        return Scalar(ring, base if tag is _ONE else None, tag, base)

    __rmul__ = __mul__

    def mul_zeta_pow(self, other: "Scalar", m: int) -> "Scalar":
        """self * other * zeta**m (v**m in generic mode), for a scalar of this ring.

        Two monomials of this very ring give one tag, built by a single
        ``_monomial`` call; any other operands take the two products.
        """
        ring, ma = self.ring, self._mono
        if ma is not None and self._base is None and other._base is None and other.ring is ring:
            mb = other._mono
            return ring._monomial(ma[0] + mb[0] + m, ma[1] * mb[1], ma[2] * mb[2])
        return self * other * ring.zeta_pow(m)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; generic mode inverts monomials only."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        ring = self.ring
        if self._mono is None:  # generic mode
            if len(self._rep) != 1:
                raise ZeroDivisionError(
                    "only monomials are invertible in generic mode"
                )
            (e, c), = self._rep
            return Scalar(ring, ((-e, Fraction(1) / c),))
        if self._base is None:
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
        return Scalar(ring, _lowest(tuple([den * row[0] for row in x]), det))

    def __truediv__(self, other):
        other = self.ring.coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        """self**n for an ``integer`` n; a negative n goes through ``inverse``."""
        if type(n) is not int:
            integer(n)
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.ring.one)

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            other = self.ring.coerce(other)
            if other is None:
                return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        ma, mb = self._mono, other._mono
        if ma is not None and self._base is None and other._base is None:
            return ma == mb or (ma[1] == 0 and mb[1] == 0)
        return self._rep == other._rep

    def __hash__(self) -> int:
        return hash((self.ring, self._rep))

    def __repr__(self) -> str:
        if self.ring.order is None:
            return " + ".join([term_text(c, "v", e) for e, c in self._rep]) or "0"
        nums, den = self._rep
        terms = [term_text(Fraction(n, den), "z", i) for i, n in enumerate(nums) if n]
        return " + ".join(terms) or "0"
