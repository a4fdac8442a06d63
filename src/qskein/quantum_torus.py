"""Quantum tori attached to triangulated punctured surfaces.

A triangulation is recorded combinatorially: an edge count, triangles as
edge triples, and for each puncture the counterclockwise cyclic fan of
edge ends around it.  The fan data yields an antisymmetric exchange
matrix sigma, and the quantum torus has generators Y_1..Y_n with
Y_i Y_j = mu^(2 sigma_ij) Y_j Y_i for a chosen invertible parameter mu.

Elements are stored over ordered monomials Y_1^k1 ... Y_n^kn with exact
scalar coefficients.  Weyl-normalised monomials, the balanced sublattice
(triangle-wise even exponent sums), central puncture monomials, the
exponent-multiplying Frobenius map, and a basis of the balanced lattice
through the puncture monomials are all provided, together with a degree
certificate used to rule out central elements in the localized algebra.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .linear import SparseCombination, accumulate, row_reduce
from .scalars import Scalar, ScalarRing

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True)
class Triangulation:
    """Combinatorial ideal triangulation of a punctured surface."""

    edge_count: int
    triangles: tuple[tuple[int, int, int], ...]
    fans: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        n = self.edge_count
        if n < 1:
            raise ValueError("triangulation needs at least one edge")
        ends = [0] * n
        for name, fan in self.fans:
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
            raise ValueError("puncture count mismatch")

    @classmethod
    def from_dict(cls, data: Mapping) -> "Triangulation":
        try:
            edges = int(data["edges"])
            triangles = tuple(tuple(int(e) for e in t) for t in data["triangles"])
            fans = tuple(
                (str(name), tuple(int(e) for e in fan))
                for name, fan in data["fans"].items()
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed triangulation data: {exc}") from exc
        return cls(edges, triangles, fans)

    @classmethod
    def from_json(cls, text: str) -> "Triangulation":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {
            "edges": self.edge_count,
            "triangles": [list(t) for t in self.triangles],
            "fans": {name: list(fan) for name, fan in self.fans},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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
    edge i inside some fan (cyclically).  Entries are validated to lie in
    -2..2.
    """
    n = tri.edge_count
    b = [[0] * n for _ in range(n)]
    for _, fan in tri.fans:
        m = len(fan)
        for a in range(m):
            i, j = fan[a], fan[(a + 1) % m]
            b[i][j] += 1
    sigma = [[b[i][j] - b[j][i] for j in range(n)] for i in range(n)]
    for row in sigma:
        for entry in row:
            if not -2 <= entry <= 2:
                raise ValueError("malformed fans: exchange entry out of range")
    return tuple(tuple(row) for row in sigma)


def balanced_check(tri: Triangulation, k: Sequence[int]) -> bool:
    """Whether the exponent vector has even sum over every triangle."""
    if len(k) != tri.edge_count:
        raise ValueError("exponent vector has wrong length")
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
# integer lattice helpers


def _row_hnf(rows: list[list[int]], n: int) -> list[list[int]]:
    """Integer row-style Hermite form; returns the nonzero rows."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def _gf2_nullspace(rows: list[list[int]], n: int) -> list[list[int]]:
    mat = [[x & 1 for x in row] for row in rows]
    mat = [row for row in mat if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [(a + b) & 1 for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for pr, pc in enumerate(pivots):
            vec[pc] = mat[pr][fc] & 1
        basis.append(vec)
    return basis


def balanced_lattice_basis(tri: Triangulation) -> list[Vector]:
    """Row basis of the lattice of balanced exponent vectors."""
    n = tri.edge_count
    constraints = []
    for t in tri.triangles:
        row = [0] * n
        for e in t:
            row[e] += 1
        constraints.append(row)
    gens = _gf2_nullspace(constraints, n)
    for i in range(n):
        row = [0] * n
        row[i] = 2
        gens.append(row)
    basis = _row_hnf(gens, n)
    if len(basis) != n:
        raise ArithmeticError("balanced lattice is not full rank")
    return [tuple(r) for r in basis]


def _complete_unimodular_rows(crows: list[Vector], n: int) -> list[Vector]:
    """Complete primitive integer rows to an n x n matrix of determinant +-1."""
    p = len(crows)
    c_mat = [list(r) for r in crows]
    r_mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_addmul(i: int, j: int, t: int):
        for row in c_mat:
            row[i] += t * row[j]
        r_mat[j] = [a - t * b for a, b in zip(r_mat[j], r_mat[i])]

    def col_swap(i: int, j: int):
        for row in c_mat:
            row[i], row[j] = row[j], row[i]
        r_mat[i], r_mat[j] = r_mat[j], r_mat[i]

    def col_negate(i: int):
        for row in c_mat:
            row[i] = -row[i]
        r_mat[i] = [-a for a in r_mat[i]]

    det = 1
    for r in range(p):
        while True:
            cols = [j for j in range(r, n) if c_mat[r][j]]
            if not cols:
                raise ValueError("completion failure: dependent puncture vectors")
            jmin = min(cols, key=lambda j: abs(c_mat[r][j]))
            rest = [j for j in cols if j != jmin]
            if not rest:
                if jmin != r:
                    col_swap(jmin, r)
                if c_mat[r][r] < 0:
                    col_negate(r)
                break
            for j in rest:
                t = c_mat[r][j] // c_mat[r][jmin]
                if t:
                    col_addmul(j, jmin, -t)
        det *= c_mat[r][r]
    if abs(det) != 1:
        raise ValueError(
            f"completion failure: puncture vectors are not primitive (pivot {det})"
        )
    return [tuple(r) for r in crows] + [tuple(r_mat[i]) for i in range(p, n)]


class ZBasis:
    """Basis of the balanced lattice whose first p rows are the puncture
    monomial exponents; grades elements by their first p coordinates."""

    def __init__(self, tri: Triangulation, vectors: tuple[Vector, ...]):
        self.triangulation = tri
        self.vectors = vectors
        self.p = len(tri.punctures)
        n = len(vectors)
        rows, pivots, _ = row_reduce(
            [list(v) + [int(i == j) for j in range(n)] for i, v in enumerate(vectors)]
        )
        if pivots != list(range(n)):
            raise ArithmeticError("singular matrix")
        self._inv = [row[n:] for row in rows]

    def coordinates(self, k: Sequence[int]) -> Vector:
        """Integer coordinates of a balanced vector over this basis."""
        n = len(self.vectors)
        if len(k) != n:
            raise ValueError("vector has wrong length")
        out = []
        for i in range(n):
            val = sum(k[j] * self._inv[j][i] for j in range(n))
            if val.denominator != 1:
                raise ValueError("vector is not in the balanced lattice")
            out.append(int(val))
        return tuple(out)

    def grading(self, k: Sequence[int]) -> Vector:
        return self.coordinates(k)[: self.p]


def balanced_puncture_basis(tri: Triangulation) -> ZBasis:
    """Basis of the balanced lattice starting with the puncture exponents.

    Raises if the puncture vectors cannot be completed to a basis (they
    always can for the triangulations treated here; the failure mode is a
    hard error, never a silent fallback).
    """
    n = tri.edge_count
    basis = balanced_lattice_basis(tri)
    exponents = [central_puncture_exponent(tri, name) for name in tri.punctures]
    # solve sum_i x_i basis_i = h for every puncture exponent h at once; the
    # full-rank basis makes the reduced left block the identity
    rows, _, _ = row_reduce(
        [[b[j] for b in basis] + [h[j] for h in exponents] for j in range(n)]
    )
    coords = []
    for col in range(n, n + len(exponents)):
        x = [row[col] for row in rows]
        if any(v.denominator != 1 for v in x):
            raise ValueError("target vector is not in the lattice")
        coords.append(tuple(int(v) for v in x))
    completed = _complete_unimodular_rows(coords, n)
    if abs(row_reduce(completed)[2]) != 1:
        raise ArithmeticError("completion produced a non-unimodular matrix")
    vectors = []
    for w in completed:
        vec = [0] * n
        for coeff, bvec in zip(w, basis):
            for j in range(n):
                vec[j] += coeff * bvec[j]
        vectors.append(tuple(vec))
    for name, z in zip(tri.punctures, vectors):
        if z != central_puncture_exponent(tri, name):
            raise ArithmeticError("completion did not preserve puncture rows")
    return ZBasis(tri, tuple(vectors))


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
        sigma = tuple(tuple(int(x) for x in row) for row in sigma)
        n = len(sigma)
        for i, row in enumerate(sigma):
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
            for j in range(n):
                if sigma[i][j] != -sigma[j][i]:
                    raise ValueError("exchange matrix must be antisymmetric")
        self.sigma = sigma
        self.rank = n
        self.parameter = parameter if parameter is not None else ring.zeta_pow(1)
        if self.parameter.ring != ring:
            raise ValueError("parameter from a different scalar ring")
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

    def ordered_monomial(self, k: Sequence[int], coeff=None) -> "QTElement":
        k = tuple(int(e) for e in k)
        if len(k) != self.rank:
            raise ValueError("exponent vector has wrong length")
        if coeff is None:
            coeff = self.ring.one
        elif not isinstance(coeff, Scalar):
            coeff = self.ring.from_rational(coeff)
        if coeff.is_zero():
            return self.zero()
        return QTElement(self, {k: coeff})

    def generator(self, i: int) -> "QTElement":
        k = [0] * self.rank
        k[i] = 1
        return self.ordered_monomial(k)

    def weyl_monomial(self, k: Sequence[int]) -> "QTElement":
        """Weyl-normalised monomial: parameter^(-sum_{i<j} sigma_ij k_i k_j)
        times the ordered monomial.  Its product rule is
        [Y^k][Y^l] = parameter^(k^T sigma l) [Y^(k+l)]."""
        k = tuple(int(e) for e in k)
        w = 0
        for i in range(self.rank):
            if k[i]:
                for j in range(i + 1, self.rank):
                    w += self.sigma[i][j] * k[i] * k[j]
        return self.ordered_monomial(k, self.parameter ** (-w))

    def weyl_word(self, word: Sequence[int]) -> "QTElement":
        """Weyl bracket of a word of generator indices (repeats allowed)."""
        word = [int(i) for i in word]
        corr = 0
        inv = 0
        for a in range(len(word)):
            for b in range(a + 1, len(word)):
                corr -= self.sigma[word[a]][word[b]]
                if word[a] > word[b]:
                    inv += 2 * self.sigma[word[a]][word[b]]
        counts = [0] * self.rank
        for i in word:
            counts[i] += 1
        return self.ordered_monomial(counts, self.parameter ** (corr + inv))

    def pairing(self, k: Sequence[int], l: Sequence[int]) -> int:
        """The antisymmetric form k^T sigma l."""
        total = 0
        for i in range(self.rank):
            if k[i]:
                for j in range(self.rank):
                    if self.sigma[i][j] and l[j]:
                        total += k[i] * self.sigma[i][j] * l[j]
        return total

    def _mul_exponent(self, k: Vector, l: Vector) -> int:
        total = 0
        for i in range(self.rank):
            if k[i]:
                for j in range(i):
                    if self.sigma[i][j] and l[j]:
                        total += 2 * self.sigma[i][j] * k[i] * l[j]
        return total


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
        acc: dict[Vector, Scalar] = {}
        torus = self.parent
        par = torus.parameter
        for k, ck in self.terms.items():
            for l, cl in other.terms.items():
                key = tuple(a + b for a, b in zip(k, l))
                accumulate(acc, key, ck * cl * par ** torus._mul_exponent(k, l))
        return acc

    @staticmethod
    def _format_term(k: Vector, coeff: Scalar) -> str:
        return f"({coeff})*Y{k}"


def central_puncture_element(torus: QuantumTorus, name: str) -> QTElement:
    """Weyl bracket of the fan word around a puncture; central by design."""
    if torus.triangulation is None:
        raise ValueError("torus was not built from a triangulation")
    return torus.weyl_word(torus.triangulation.fan(name))


def is_central(torus: QuantumTorus, x: QTElement) -> bool:
    for i in range(torus.rank):
        g = torus.generator(i)
        if g * x != x * g:
            return False
    return True


def frobenius_map(x: QTElement, target: QuantumTorus, order: int) -> QTElement:
    """Multiply every exponent vector by ``order``.

    The source torus parameter must be target.parameter ** order**2 (same
    scalar ring, same exchange matrix); on Weyl monomials the map sends
    [Y^k] to [Y^(order k)] and is an algebra embedding.
    """
    source = x.torus
    if source.ring != target.ring or source.sigma != target.sigma:
        raise ValueError("source and target tori are incompatible")
    if source.parameter != target.parameter ** (order * order):
        raise ValueError("source parameter is not the expected power")
    return QTElement(
        target,
        {tuple(order * e for e in k): v for k, v in x.terms.items()},
    )


def qt_deg(x: QTElement, zbasis: ZBasis) -> Vector:
    """Lex-largest grading vector (first p coordinates) over the support."""
    if x.is_zero():
        raise ValueError("degree of the zero element is undefined")
    return max(zbasis.grading(k) for k in x.terms)


def grade_decomposition(x: QTElement, zbasis: ZBasis) -> dict[Vector, QTElement]:
    """Split an element into its graded pieces by grading vector."""
    pieces: dict[Vector, dict[Vector, Scalar]] = {}
    for k, v in x.terms.items():
        g = zbasis.grading(k)
        pieces.setdefault(g, {})[k] = v
    return {g: QTElement(x.torus, terms) for g, terms in pieces.items()}


@dataclass(frozen=True)
class CenterFreeCertificate:
    certified: bool
    combined: tuple[Vector, ...]
    distinct: bool
    expansion_checked: bool
    expansion_nonzero: bool | None = None
    expansion_deg_matches: bool | None = None


def center_free_certificate(
    order: int,
    x_map: Mapping[Vector, Vector],
    *,
    target: QuantumTorus | None = None,
    zbasis: ZBasis | None = None,
    elements: Mapping[Vector, QTElement] | None = None,
) -> CenterFreeCertificate:
    """Degree certificate behind the triviality of the localized center.

    ``x_map`` sends residue tuples k (length p) to integer grading vectors
    x_k; the certificate asserts the combined vectors order*x_k + k are
    pairwise distinct.  When concrete balanced elements l_k are supplied
    (in the source torus of the exponent-multiplying map), the sum
    sum_k F(l_k) * prod_i (Z_i + Z_i^-1)^(k_i) is expanded and its degree
    must equal the lex-max combined vector, hence the sum is nonzero.
    """
    combined = {}
    for k, x in x_map.items():
        k = tuple(int(e) for e in k)
        x = tuple(int(e) for e in x)
        if len(k) != len(x):
            raise ValueError("residue tuple and grading vector differ in length")
        combined[k] = tuple(order * xi + ki for xi, ki in zip(x, k))
    values = tuple(combined.values())
    distinct = len(set(values)) == len(values)
    if elements is None:
        return CenterFreeCertificate(
            certified=distinct,
            combined=values,
            distinct=distinct,
            expansion_checked=False,
        )
    if target is None or zbasis is None:
        raise ValueError("expansion check needs the target torus and a basis")
    z_half = []
    for i in range(zbasis.p):
        z = target.weyl_monomial(zbasis.vectors[i])
        z_inv = target.weyl_monomial(tuple(-e for e in zbasis.vectors[i]))
        z_half.append(z + z_inv)
    images = []
    for k, elt in elements.items():
        k = tuple(int(e) for e in k)
        if k not in combined:
            raise ValueError("element key missing from x_map")
        if elt.is_zero():
            raise ValueError("balanced elements must be nonzero")
        image = frobenius_map(elt, target, order)
        for i, ki in enumerate(k):
            image = image * (z_half[i] ** ki)
        images.append(image)
    total = target.zero().add_all(images)
    nonzero = not total.is_zero()
    deg_matches = nonzero and qt_deg(total, zbasis) == max(
        combined[k] for k in elements
    )
    return CenterFreeCertificate(
        certified=distinct and nonzero and deg_matches,
        combined=values,
        distinct=distinct,
        expansion_checked=True,
        expansion_nonzero=nonzero,
        expansion_deg_matches=deg_matches,
    )
