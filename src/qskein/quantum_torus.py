"""Quantum tori attached to triangulated punctured surfaces.

A triangulation is recorded combinatorially: an edge count, triangles as
edge triples, and for each puncture the counterclockwise cyclic fan of
edge ends around it.  The fan data yields an antisymmetric exchange
matrix sigma, and the quantum torus has generators Y_1..Y_n with
Y_i Y_j = mu^(2 sigma_ij) Y_j Y_i for a power mu of the root; other
parameters are refused.

Elements are stored over ordered monomials Y_1^k1 ... Y_n^kn with exact
scalar coefficients.  Weyl-normalised monomials, the balanced sublattice
(triangle-wise even exponent sums), central puncture monomials, the
exponent-multiplying Frobenius map, and a basis of the balanced lattice
through the puncture monomials are all provided, together with a degree
certificate used to rule out central elements in the localized algebra;
the certificate grades its elements itself, by ``qt_deg`` over that basis.

Exponents, exchange entries, residues and triangulation data follow
``linear.integer``, coefficients and the torus parameter
``ScalarRing.coerce``: floats, strings and bools raise TypeError.  An
element argument follows ``linear.instance``.
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linear import SparseCombination, accumulate, exact, instance, integer, integer_solve
from .scalars import Scalar, ScalarRing

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# triangulations


class _TriangulationFields(NamedTuple):
    edge_count: int
    triangles: tuple[tuple[int, int, int], ...]
    fans: tuple[tuple[str, tuple[int, ...]], ...]


class Triangulation(_TriangulationFields):
    """Combinatorial ideal triangulation of a punctured surface."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__, as is _replace

    def __new__(cls, edge_count: int, triangles, fans):
        self = super().__new__(cls, edge_count, triangles, fans)
        n = self.edge_count
        if n < 1:
            raise ValueError("triangulation needs at least one edge")
        # every edge has two fan ends and two triangle slots; check the
        # totals before allocating per-edge counters
        if 2 * n != sum(len(fan) for _, fan in self.fans):
            raise ValueError("fan lengths must add up to twice the edge count")
        if 2 * n != 3 * len(self.triangles):
            raise ValueError("triangle slots must number twice the edge count")
        ends = [0] * n
        seen = set()
        for name, fan in self.fans:
            if name in seen:
                raise ValueError(f"puncture {name!r} has two fans")
            seen.add(name)
            if not fan:
                raise ValueError(f"fan of {name!r} is empty")
            for e in fan:
                if not 0 <= e < n:
                    raise ValueError(f"fan of {name!r} uses unknown edge {e}")
                ends[e] += 1
        if any(c != 2 for c in ends):
            raise ValueError("every edge must have exactly two ends in the fans")
        slots = [0] * n
        for tri in self.triangles:
            if len(tri) != 3:
                raise ValueError("triangles must be edge triples")
            for e in tri:
                if not 0 <= e < n:
                    raise ValueError(f"triangle uses unknown edge {e}")
                slots[e] += 1
        if any(c != 2 for c in slots):
            raise ValueError("every edge must bound exactly two triangle slots")
        # each corner of a triangle is one consecutive pair in some fan
        corners = Counter(
            _edge_pair(x, y) for a, b, c in self.triangles for x, y in ((a, b), (b, c), (a, c))
        )
        fan_pairs = Counter(
            _edge_pair(fan[i], fan[(i + 1) % len(fan)])
            for _, fan in self.fans
            for i in range(len(fan))
        )
        if corners != fan_pairs:
            raise ValueError("consecutive fan entries do not match the triangle corners")
        # a closed orientable surface of genus g has V - E + F = 2 - 2g
        euler = len(self.fans) - n + len(self.triangles)
        if euler % 2 or euler > 2:
            raise ValueError(
                f"Euler characteristic {euler} (punctures - edges + triangles) "
                "is not that of a closed orientable surface"
            )
        return self

    @property
    def punctures(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fans)

    def fan(self, name: str) -> tuple[int, ...]:
        for fname, fan in self.fans:
            if fname == name:
                return fan
        raise KeyError(name)

    def check_euler_count(self, genus: int, punctures: int):
        """Edge count must equal 6g + 3p - 6 when the topology is known."""
        expected = 6 * genus + 3 * punctures - 6
        if self.edge_count != expected:
            raise ValueError(
                f"edge count {self.edge_count} != 6g+3p-6 = {expected}"
            )
        if len(self.punctures) != punctures:
            raise ValueError(f"puncture count {len(self.punctures)} != {punctures}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "Triangulation":
        """The triangulation of ``to_dict``'s data; a repeated key (``from_json``
        keeps them all) and then a key other than those is refused by name."""
        try:
            keys = Counter(key for key, _ in data.items())
            for key, count in keys.items():
                if count > 1:
                    raise ValueError(f"malformed triangulation data: key {key!r} appears twice")
            for key in keys:
                if key not in ("edges", "triangles", "fans"):
                    raise ValueError(f"malformed triangulation data: unknown key {key!r}")
            edges = integer(data["edges"])
            triangles = tuple(tuple(map(integer, t)) for t in data["triangles"])
            fans = tuple(
                (str(name), tuple(map(integer, fan)))
                for name, fan in data["fans"].items()
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed triangulation data: {exc}") from exc
        return cls(edges, triangles, fans)

    @classmethod
    def from_json(cls, text: str) -> "Triangulation":
        try:
            return cls.from_dict(json.loads(text, object_pairs_hook=_JSONObject))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed triangulation data: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "edges": self.edge_count,
            "triangles": [list(t) for t in self.triangles],
            "fans": {name: list(fan) for name, fan in self.fans},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class _JSONObject(dict):
    """A JSON object whose ``items()`` are all its pairs, a repeated key's
    too, so ``from_dict`` sees a repeated top-level key and a puncture named
    twice reaches the constructor with both fans."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        self._pairs = pairs

    def items(self):
        return self._pairs


def _edge_pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x <= y else (y, x)


def once_punctured_torus() -> Triangulation:
    """Genus one, one puncture: 3 edges, 2 triangles, a single 6-entry fan."""
    return Triangulation(
        edge_count=3,
        triangles=((0, 1, 2), (0, 1, 2)),
        fans=(("v0", (0, 1, 2, 0, 1, 2)),),
    )


def four_punctured_sphere() -> Triangulation:
    """Genus zero, four punctures: the boundary of a tetrahedron.

    Vertices are the punctures; edge k joins the vertex pair with the k-th
    smallest label pair: 01, 02, 03, 12, 13, 23.  Fans are counterclockwise
    for a consistent outward orientation.
    """
    return Triangulation(
        edge_count=6,
        triangles=((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)),
        fans=(
            ("v0", (0, 1, 2)),
            ("v1", (0, 4, 3)),
            ("v2", (1, 3, 5)),
            ("v3", (2, 5, 4)),
        ),
    )


def exchange_matrix(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Antisymmetric matrix sigma = b - b^T from counterclockwise fans.

    b_ij counts how often an end of edge j immediately follows an end of
    edge i inside some fan (cyclically).  A constructed triangulation gives
    every edge exactly two fan ends, each followed by exactly one end, so
    0 <= b_ij <= 2 and every entry lies in -2..2 with no check.
    """
    n = tri.edge_count
    b = [[0] * n for _ in range(n)]
    for _, fan in tri.fans:
        m = len(fan)
        for a in range(m):
            i, j = fan[a], fan[(a + 1) % m]
            b[i][j] += 1
    return tuple(tuple(b[i][j] - b[j][i] for j in range(n)) for i in range(n))


def balanced_check(tri: Triangulation, k: Sequence[int]) -> bool:
    """Whether the exponent vector (``linear.integer``) has even sum over every triangle."""
    if len(k) != tri.edge_count:
        raise ValueError("exponent vector has wrong length")
    k = tuple(map(integer, k))
    for t in tri.triangles:
        if sum(k[e] for e in t) % 2:
            return False
    return True


def central_puncture_exponent(tri: Triangulation, name: str) -> Vector:
    """Counts of edge ends at the puncture (always a balanced vector)."""
    counts = [0] * tri.edge_count
    for e in tri.fan(name):
        counts[e] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# the balanced lattice


def _gf2_reduce(rows: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form over GF(2) of bit-mask rows (bit j is column j).

    Returns {leading column: row}, the leading column being a row's highest
    set bit; no row has another row's leading bit set.
    """
    reduced: dict[int, int] = {}
    for row in rows:
        for c, other in reduced.items():
            if row >> c & 1:
                row ^= other
        if row:
            lead = row.bit_length() - 1
            for c, other in reduced.items():
                if other >> lead & 1:
                    reduced[c] = other ^ row
            reduced[lead] = row
    return reduced


def _triangle_parities(tri: Triangulation) -> dict[int, int]:
    """Reduced GF(2) rows of the triangle parities, one bit per edge of a triangle."""
    return _gf2_reduce((1 << a) ^ (1 << b) ^ (1 << c) for a, b, c in tri.triangles)


def balanced_lattice_basis(tri: Triangulation) -> list[Vector]:
    """Row Hermite basis of the lattice L of balanced exponent vectors.

    L contains 2Z^n, so it is the preimage of its parity space S, the GF(2)
    solutions of the triangle parities.  Each reduced parity row leads at
    its highest bit and holds no other leading bit, so a free column c
    (where no row leads) has the solution e_c plus the leads of the rows
    holding c, all past c; row c is that solution, and row c is 2e_c at a
    leading column.  That basis is upper triangular with diagonal entries
    1 or 2 and entries above each diagonal entry in [0, it), so it is the
    unique row Hermite form of L.
    """
    n = tri.edge_count
    parities = _triangle_parities(tri)
    return [
        tuple(2 * (j == c) for j in range(n))
        if c in parities
        else tuple(int(j == c or parities.get(j, 0) >> c & 1) for j in range(n))
        for c in range(n)
    ]


class ZBasis:
    """Basis of the balanced lattice whose first p rows are the puncture
    monomial exponents; grades elements by their first p coordinates.

    Raises ValueError unless the rows are a basis of the balanced lattice:
    one balanced row per edge, with |det| the lattice's index in Z^n.  That
    index is 2^r for r the GF(2) rank of the triangle parities, the product
    of the diagonal of ``balanced_lattice_basis``.
    """

    def __init__(self, tri: Triangulation, vectors: tuple[Vector, ...]):
        self.vectors = vectors
        self.p = len(tri.punctures)
        n = tri.edge_count
        if len(vectors) != n or not all(balanced_check(tri, v) for v in vectors):
            raise ValueError("basis rows must be one balanced vector per edge")
        det, adj = integer_solve(
            [list(v) + [int(i == j) for j in range(n)] for i, v in enumerate(vectors)]
        )
        if abs(det) != 1 << len(_triangle_parities(tri)):
            raise ValueError(
                f"rows of determinant {det} are not a basis of the balanced lattice"
            )
        # the inverse adj / det as integer columns over the least common
        # denominator, which is positive
        g = gcd(det, *(x for row in adj for x in row))
        if det < 0:
            g = -g
        self._den = det // g
        self._columns = [tuple(row[i] // g for row in adj) for i in range(n)]

    def coordinates(self, k: Sequence[int]) -> Vector:
        """Integer coordinates of a balanced vector over this basis."""
        if len(k) != len(self.vectors):
            raise ValueError("vector has wrong length")
        out = []
        for col in self._columns:
            c, r = divmod(sum(map(mul, k, col)), self._den)
            if r:
                raise ValueError("vector is not in the balanced lattice")
            out.append(c)
        return tuple(out)

    def grading(self, k: Sequence[int]) -> Vector:
        return self.coordinates(k)[: self.p]


def balanced_puncture_basis(tri: Triangulation) -> ZBasis:
    """Basis of the balanced lattice starting with the puncture exponents.

    Euclid on the columns of the exponents' coordinates over
    ``balanced_lattice_basis`` makes them lower triangular; each column
    operation is undone on the lattice rows, so coordinates times rows stay
    the exponents.  With every pivot +-1 the exponents and the rows past p
    are a basis, which ``ZBasis`` checks.  An exponent outside the lattice,
    dependent on the ones before it or not primitive beside them is refused
    by its puncture's name (this never happens for the triangulations
    treated here; it is a hard error, never a silent fallback).
    """
    n = tri.edge_count
    rows = balanced_lattice_basis(tri)
    exponents = [central_puncture_exponent(tri, name) for name in tri.punctures]
    # solve sum_c x_c rows_c = h by substitution down the upper triangular
    # basis: x_c is fixed by column c of what rows 0..c-1 leave
    coords = []
    for name, h in zip(tri.punctures, exponents):
        rest = list(h)
        x = []
        for c, b in enumerate(rows):
            q, r = divmod(rest[c], b[c])
            if r:
                raise ValueError(f"exponent of puncture {name!r} is not in the lattice")
            rest = [u - q * v for u, v in zip(rest, b)]
            x.append(q)
        coords.append(x)
    for r, name in enumerate(tri.punctures):
        w = coords[r]
        while True:
            cols = [j for j in range(r, n) if w[j]]
            if not cols:
                raise ValueError(
                    f"completion failure: puncture {name!r} is dependent on the ones before it"
                )
            jmin = min(cols, key=lambda j: abs(w[j]))
            rest = [j for j in cols if j != jmin]
            if not rest:
                break
            # column j -= t column jmin, undone as row jmin += t row j
            for j in rest:
                t = w[j] // w[jmin]
                if t:
                    for x in coords:
                        x[j] -= t * x[jmin]
                    rows[jmin] = [a + t * b for a, b in zip(rows[jmin], rows[j])]
        if jmin != r:
            for x in coords:
                x[r], x[jmin] = x[jmin], x[r]
            rows[r], rows[jmin] = rows[jmin], rows[r]
        # later steps touch only columns and rows past r, and rows before p
        # are not returned, so the pivot's sign needs no fixing
        if abs(w[r]) != 1:
            raise ValueError(
                f"completion failure: puncture {name!r} is not primitive (pivot {abs(w[r])})"
            )
    return ZBasis(tri, tuple(exponents) + tuple(map(tuple, rows[len(exponents):])))


# ---------------------------------------------------------------------------
# the quantum torus itself


class QuantumTorus:
    """Quantum torus with relations Y_i Y_j = parameter^(2 sigma_ij) Y_j Y_i."""

    def __init__(
        self,
        ring: ScalarRing,
        sigma: Sequence[Sequence[int]],
        parameter: Scalar | None = None,
        triangulation: Triangulation | None = None,
    ):
        self.ring = ring
        sigma = tuple(tuple(map(integer, row)) for row in sigma)
        n = len(sigma)
        for i, row in enumerate(sigma):
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
            for j in range(n):
                if sigma[i][j] != -sigma[j][i]:
                    raise ValueError("exchange matrix must be antisymmetric")
        self.sigma = sigma
        self.rank = n
        # the nonzero entries below the diagonal, (i, j, sigma_ij) with i > j
        self._lower = tuple(
            (i, j, sigma[i][j]) for i in range(n) for j in range(i) if sigma[i][j]
        )
        self.parameter = ring.zeta_pow(1) if parameter is None else exact(ring.coerce, parameter)
        self._exponent = ring.root_exponent(self.parameter)
        if self._exponent is None:
            raise ValueError("torus parameter must be a power of the root")
        self.triangulation = triangulation

    @classmethod
    def from_triangulation(
        cls,
        ring: ScalarRing,
        tri: Triangulation,
        parameter: Scalar | None = None,
    ) -> "QuantumTorus":
        return cls(ring, exchange_matrix(tri), parameter, triangulation=tri)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuantumTorus)
            and self.ring == other.ring
            and self.sigma == other.sigma
            and self.parameter == other.parameter
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.sigma, self.parameter))

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "QTElement":
        return QTElement(self, {})

    def one(self) -> "QTElement":
        return QTElement(self, {(0,) * self.rank: self.ring.one})

    def _exponents(self, k: Sequence[int]) -> Vector:
        """``k`` as a tuple of ``integer`` exponents, one per generator."""
        k = tuple(map(integer, k))
        if len(k) != self.rank:
            raise ValueError("exponent vector has wrong length")
        return k

    def ordered_monomial(self, k: Sequence[int], coeff=None) -> "QTElement":
        k = self._exponents(k)
        coeff = self.ring.one if coeff is None else exact(self.ring.coerce, coeff)
        if not coeff:
            return self.zero()
        return QTElement(self, {k: coeff})

    def generator(self, i: int) -> "QTElement":
        """Y_i, for an ``integer`` i in 0..rank-1."""
        if not 0 <= integer(i) < self.rank:
            raise ValueError(f"generator index {i} is outside 0..{self.rank - 1}")
        k = [0] * self.rank
        k[i] = 1
        return self.ordered_monomial(k)

    def weyl_monomial(self, k: Sequence[int]) -> "QTElement":
        """Weyl-normalised monomial: parameter^(-sum_{i<j} sigma_ij k_i k_j)
        times the ordered monomial.  Its product rule is
        [Y^k][Y^l] = parameter^(k^T sigma l) [Y^(k+l)]."""
        k = self._exponents(k)
        return QTElement(self, {k: self.ring.zeta_pow(self._exponent * self._low(k, k))})

    def _low(self, k: Sequence[int], l: Sequence[int]) -> int:
        """The lower-triangular form sum_{i>j} sigma_ij k_i l_j."""
        return sum([s * k[i] * l[j] for i, j, s in self._lower])


class QTElement(SparseCombination):
    """Linear combination of ordered quantum torus monomials."""

    __slots__ = ()
    _mismatch = "elements from different quantum tori"

    @property
    def torus(self) -> QuantumTorus:
        return self.parent

    @property
    def _identity(self) -> Vector:
        return (0,) * self.parent.rank

    def _mul_terms(self, other: "QTElement") -> dict[Vector, Scalar]:
        """Y^k Y^l = parameter^(2 low(k, l)) Y^(k+l): the twist is a root power
        r . l, with r = 2e k^T L for the torus parameter zeta^e and L the
        lower triangle of sigma, built once per left term."""
        acc: dict[Vector, Scalar] = {}
        torus = self.parent
        lower, scale = torus._lower, 2 * torus._exponent
        right = list(other.terms.items())
        for k, ck in self.terms.items():
            row = [0] * torus.rank
            for i, j, s in lower:
                if k[i]:
                    row[j] += scale * s * k[i]
            twisted = ck.mul_zeta_pow
            for l, cl in right:
                accumulate(acc, tuple(map(add, k, l)), twisted(cl, sum(map(mul, row, l))))
        return acc

    @staticmethod
    def _format_term(k: Vector, coeff: Scalar) -> str:
        return f"({coeff})*Y{k}"


def central_puncture_element(torus: QuantumTorus, name: str) -> QTElement:
    """Weyl bracket of the fan word around a puncture; central by design.  A
    bracket depends only on letter counts: this is the exponent's Weyl monomial."""
    if torus.triangulation is None:
        raise ValueError("torus was not built from a triangulation")
    return torus.weyl_monomial(central_puncture_exponent(torus.triangulation, name))


def is_central(torus: QuantumTorus, x: QTElement) -> bool:
    for i in range(torus.rank):
        g = torus.generator(i)
        if g * x != x * g:
            return False
    return True


def frobenius_map(x: QTElement, target: QuantumTorus, order: int) -> QTElement:
    """Multiply every exponent vector by ``order``, which follows ``linear.integer``.

    The source torus parameter must be the target's parameter to the power
    order**2 (same scalar ring, same exchange matrix); on Weyl monomials
    the map sends [Y^k] to [Y^(order k)] and is an algebra embedding.
    """
    order = integer(order)
    source, ring = instance(x, QTElement).torus, target.ring
    if (source.ring is not ring and source.ring != ring) or source.sigma != target.sigma:
        raise ValueError("source and target tori are incompatible")
    # both parameters are root powers: compare exponents, modulo N in root mode
    e = target._exponent * order * order
    if source._exponent != (e % ring.order if ring.order else e):
        raise ValueError("source parameter is not the expected power")
    return QTElement(
        target,
        {tuple([order * e for e in k]): v for k, v in x.terms.items()},
    )


def qt_deg(x: QTElement, zbasis: ZBasis) -> Vector:
    """Lex-largest grading vector (first p coordinates) over the support."""
    if instance(x, QTElement).is_zero():
        raise ValueError("degree of the zero element is undefined")
    return max(map(zbasis.grading, x.terms))


class CenterFreeCertificate(NamedTuple):
    certified: bool
    combined: tuple[Vector, ...]
    distinct: bool
    expansion_nonzero: bool
    expansion_deg_matches: bool


def center_free_certificate(
    order: int,
    *,
    target: QuantumTorus,
    zbasis: ZBasis,
    elements: Mapping[Vector, QTElement],
) -> CenterFreeCertificate:
    """Degree certificate behind the triviality of the localized center.

    ``elements`` sends residue tuples k (length p, natural) to nonzero
    balanced elements l_k of the source torus of the exponent-multiplying
    map F into ``target``.  With x_k = ``qt_deg(l_k, zbasis)``, the
    certificate asserts the combined vectors order*x_k + k are pairwise
    distinct.  It then expands the sum sum_k F(l_k) * prod_i (Z_i +
    Z_i^-1)^(k_i), whose degree must equal the lex-max combined vector,
    hence the sum is nonzero.  The order and residues follow
    ``linear.integer``.
    """
    order = integer(order)
    # powers[i][r] is (Z_i + Z_i^-1)^r, grown one product at a time as
    # larger residues occur
    powers = []
    for z in zbasis.vectors[: zbasis.p]:
        z_half = target.weyl_monomial(z) + target.weyl_monomial(tuple(-e for e in z))
        powers.append([target.one(), z_half])
    combined = []
    images = []
    for k, elt in elements.items():
        k = tuple(map(integer, k))
        if len(k) != zbasis.p:
            raise ValueError("residue tuple has wrong length")
        if instance(elt, QTElement).is_zero():
            raise ValueError("balanced elements must be nonzero")
        if min(k, default=0) < 0:
            raise ValueError("residues must be non-negative")
        combined.append(tuple(order * xi + ki for xi, ki in zip(qt_deg(elt, zbasis), k)))
        image = frobenius_map(elt, target, order)
        for i, ki in enumerate(k):
            row = powers[i]
            while len(row) <= ki:
                row.append(row[-1] * row[1])
            image = image * row[ki]
        images.append(image)
    distinct = len(set(combined)) == len(combined)
    total = target.zero().add_all(images)
    nonzero = not total.is_zero()
    deg_matches = nonzero and qt_deg(total, zbasis) == max(combined)
    return CenterFreeCertificate(
        certified=distinct and nonzero and deg_matches,
        combined=tuple(combined),
        distinct=distinct,
        expansion_nonzero=nonzero,
        expansion_deg_matches=deg_matches,
    )
