"""Closed-form dimension counts and bounds at odd roots of unity.

Surfaces are described combinatorially by genus, interior punctures and
open boundary components.  The quantity r = -chi + b controls both the
exact localized dimension N^(3r) and the bounds on the number of
generators over the Frobenius image.  Marked 3-manifolds are described
by Heegaard genus and marking count.  Everything is exact big-integer
arithmetic; nothing here may overflow or round.  Each count is a power
base**exponent: the exponent is computed first, and the power is refused
with ValueError, before it is computed, when exponent * base.bit_length()
(a bound on its bit length) exceeds MAX_RESULT_BITS.  Powers of 1 are 1
and are never refused.

The bigon's index sets, the N^3 box and its spanning wing, are enumerated
here next to the formula that counts them, so that counting them loads no
algebra layer.  It imports nothing of the package, so it restates
``linear.integer`` for its counts and box sizes and ``linear.odd_order``
for its orders.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

MAX_RESULT_BITS = 1 << 22
"""Largest bit length a count may have: about 1.26 million decimal digits,
computed in well under a second."""


def _integer(value) -> int:  # linear.integer, restated
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class _SurfaceFields(NamedTuple):
    genus: int
    punctures: int
    boundary: int


class SurfaceDescriptor(_SurfaceFields):
    """Punctured bordered surface: compact model of the given genus with
    ``punctures`` interior points removed and ``boundary`` open intervals
    as boundary components.

    The convention: each boundary component comes from removing points on
    a single circle of the compact model, so chi drops by 1 for the
    circle's disk-count contribution regardless of how many intervals it
    carries.  Interior punctures drop chi by 1 each.  This normalisation
    gives the disk with two boundary intervals r = 1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__, as is _replace

    def __new__(cls, genus: int, punctures: int, boundary: int):
        if min(map(_integer, (genus, punctures, boundary))) < 0:
            raise ValueError("surface data must be nonnegative")
        return super().__new__(cls, genus, punctures, boundary)


class _ManifoldFields(NamedTuple):
    genus: int
    markings: int


class Marked3ManifoldDescriptor(_ManifoldFields):
    """Compact oriented 3-manifold of the given Heegaard genus with a
    marking consisting of ``markings`` oriented open intervals."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__, as is _replace

    def __new__(cls, genus: int, markings: int):
        if min(_integer(genus), _integer(markings)) < 0:
            raise ValueError("manifold data must be nonnegative")
        return super().__new__(cls, genus, markings)


def euler_characteristic(s: SurfaceDescriptor) -> int:
    chi = 2 - 2 * s.genus - s.punctures
    if s.boundary > 0:
        chi -= 1
    return chi


def r_of_surface(s: SurfaceDescriptor) -> int:
    """The invariant r = -chi + (number of boundary components)."""
    return -euler_characteristic(s) + s.boundary


def _check_order(order: int):  # linear.odd_order, restated
    if _integer(order) < 1 or order % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {order}")


def _power(base: int, exponent: int) -> int:
    if base > 1 and exponent * base.bit_length() > MAX_RESULT_BITS:
        raise ValueError(
            f"count refused: a power with a {base.bit_length()}-bit base and a "
            f"{exponent.bit_length()}-bit exponent may exceed {MAX_RESULT_BITS} bits"
        )
    return base**exponent


def localized_dimension(s: SurfaceDescriptor, order: int) -> int:
    """Dimension N^(3r) over the fraction field of the Frobenius image.

    Requires odd order; closed surfaces (no boundary) must have negative
    Euler characteristic.
    """
    _check_order(order)
    if s.boundary == 0 and euler_characteristic(s) >= 0:
        raise ValueError("closed surface needs negative Euler characteristic")
    return _power(order, 3 * r_of_surface(s))


Index = tuple[int, int, int, int]


def _size(n: int) -> int:
    """``n`` if it is a natural ``_integer``, the side of the basis box."""
    if _integer(n) < 0:
        raise ValueError(f"box size must be a natural number, got {n}")
    return n


def iter_basis_box(n: int) -> Iterator[Index]:
    """The n**3 PBW indices with first entry 0 and the rest below n.

    Position p of the enumeration is (0, p // n**2, p // n % n, p % n).
    """
    _size(n)
    return (
        (0, k2, k3, k4)
        for k2 in range(n)
        for k3 in range(n)
        for k4 in range(n)
    )


def iter_spanning_wing(n: int) -> Iterator[Index]:
    """Extra indices with positive a-exponent completing the spanning set."""
    _size(n)
    return (
        (n - j, 0, k2, k3)
        for j in range(1, n)
        for k2 in range(n)
        for k3 in range(n)
        if k2 < j or k3 < j
    )


def iter_spanning_set(n: int) -> Iterator[Index]:
    return chain(iter_basis_box(n), iter_spanning_wing(n))


def basis_box(n: int) -> list[Index]:
    return list(iter_basis_box(n))


def spanning_wing(n: int) -> list[Index]:
    return list(iter_spanning_wing(n))


def spanning_set(n: int) -> list[Index]:
    return list(iter_spanning_set(n))


def spanning_count_formula(order: int) -> int:
    """2N^3 - N(N+1)(2N+1)/6, the size of the basis-plus-wing spanning set."""
    _check_order(order)
    return 2 * order**3 - order * (order + 1) * (2 * order + 1) // 6


def lambda_bounds(s: SurfaceDescriptor, order: int) -> tuple[int, int]:
    """Bounds on the generator count over the Frobenius image.

    Surfaces with boundary: (N^(3r), spanning_count^r).  Closed with
    punctures and chi < 0: (N^(6g-6+3p), N^(2^(2g+p-1)-1)).  Closed
    without punctures and chi < 0: (N^(6g-6), N^(2^(2g)-1)).
    """
    _check_order(order)
    g, p, b = s.genus, s.punctures, s.boundary
    if b > 0:
        r = r_of_surface(s)
        return _power(order, 3 * r), _power(spanning_count_formula(order), r)
    if euler_characteristic(s) >= 0:
        raise ValueError("closed surface needs negative Euler characteristic")
    if p >= 1:
        lower, upper = 6 * g - 6 + 3 * p, _power(2, 2 * g + p - 1) - 1
    else:
        lower, upper = 6 * g - 6, _power(2, 2 * g) - 1
    return _power(order, lower), _power(order, upper)


def module_bound(m: Marked3ManifoldDescriptor, order: int) -> int:
    """Generator-count bound for the skein module over the Frobenius image.

    No markings: N^(2^g - 1).  With markings: spanning_count^(2g+k-1).
    """
    _check_order(order)
    g, k = m.genus, m.markings
    if k == 0:
        return _power(order, _power(2, g) - 1)
    return _power(spanning_count_formula(order), 2 * g + k - 1)
