"""The ``qtorus`` suite: quantum tori of triangulated punctured surfaces."""

import random
from functools import cache, partial
from itertools import product
from operator import add
from typing import Sequence

from .. import quantum_torus
from ..linear import accumulate
from ..quantum_torus import (
    QTElement,
    QuantumTorus,
    Triangulation,
    balanced_check,
    balanced_lattice_basis,
    balanced_puncture_basis,
    center_free_certificate,
    central_puncture_element,
    four_punctured_sphere,
    frobenius_map,
    is_central,
    once_punctured_torus,
    qt_deg,
)
from ..scalars import ScalarRing
from . import Check, _below, _false_fields, _refuse_oversized, _require


def _balanced_sampler(torus: QuantumTorus, basis: Sequence[tuple[int, ...]], cap: int = 2):
    """A function of an ``rng`` giving a random balanced element of ``torus``.

    Each call draws, in order: the number of terms, 1 + _below(bits, 2); for
    each term, one coordinate _below(bits, 2 cap + 1) - cap per row of
    ``basis``, then c = 1 + _below(bits, 4), then ``random() < 0.5``, which
    negates c.  A term is c Y^v with v the sum of coordinate times row; terms
    that cancel give the unit.  The rows are kept as their (column, entry)
    nonzeros and the coefficients as scalars of the torus's own ring object.
    """
    n, width = len(basis), 2 * cap + 1
    rows = [tuple((j, e) for j, e in enumerate(row) if e) for row in basis]
    from_rational = torus.ring.from_rational
    signed = tuple((from_rational(c), from_rational(-c)) for c in range(1, 5))

    def draw(rng: random.Random):
        bits, rand = rng.getrandbits, rng.random
        terms: dict = {}
        for _ in range(1 + _below(bits, 2)):
            vec = [0] * n
            for row in rows:
                x = _below(bits, width) - cap
                if x:
                    for j, e in row:
                        vec[j] += x * e
            accumulate(terms, tuple(vec), signed[_below(bits, 4)][rand() < 0.5])
        return QTElement(torus, terms) if terms else torus.one()

    return draw


def qtorus_suite(
    order: int, trials: int, triangulation: Triangulation | None = None
) -> list[Check]:
    if triangulation is None:
        fixtures = [
            ("once-punctured-torus", once_punctured_torus()),
            ("four-punctured-sphere", four_punctured_sphere()),
        ]
    else:
        fixtures = [("input", triangulation)]
    # root powers, exchange matrices, and the center-free expansion: about
    # N^2 terms of up to N numerators each
    size = order * order + sum(
        tri.edge_count**2 + (order**3 if len(tri.punctures) == 1 else 0)
        for _, tri in fixtures
    )
    _refuse_oversized("qtorus", size)
    ring = ScalarRing.root_of_unity(order)
    checks: list[Check] = []
    for label, tri in fixtures:
        checks += _fixture_checks(label, tri, ring, order, trials)
    return checks


def _fixture_checks(
    label: str, tri: Triangulation, ring: ScalarRing, order: int, trials: int
) -> list[Check]:
    """The checks of one triangulation, with ids ``qtorus-<label>-...``."""
    mu = ring.zeta_pow(1)
    nu = mu ** (order * order)
    target = QuantumTorus.from_triangulation(ring, tri, mu)
    source = QuantumTorus.from_triangulation(ring, tri, nu)
    lattice = balanced_lattice_basis(tri)
    draw_source = _balanced_sampler(source, lattice)
    draw_target = _balanced_sampler(target, lattice)
    # built on first use inside a check, so a failure is that check's error
    zbasis = cache(partial(balanced_puncture_basis, tri))

    def check_sigma(rng) -> str:
        sigma = quantum_torus.exchange_matrix(tri)
        n = len(sigma)
        for i in range(n):
            for j in range(n):
                _require(sigma[i][j] == -sigma[j][i], lambda: f"not antisymmetric at ({i}, {j})")
                _require(-2 <= sigma[i][j] <= 2, lambda: f"entry ({i}, {j}) is out of range")
        return f"{n}x{n} exchange matrix is antisymmetric with entries in -2..2"

    def check_central(rng) -> str:
        for name in tri.punctures:
            h = central_puncture_element(target, name)
            _require(is_central(target, h), lambda: f"puncture element {name} not central")
            _require(balanced_check(tri, next(iter(h.terms))),
                     lambda: f"puncture exponent at {name} is not balanced")
        return f"{len(tri.punctures)} puncture monomials are central and balanced"

    def check_frobenius(rng) -> str:
        for t in range(trials):
            x, y = draw_source(rng), draw_source(rng)
            lhs = frobenius_map(x * y, target, order)
            rhs = frobenius_map(x, target, order) * frobenius_map(y, target, order)
            _require(lhs == rhs, lambda: f"power map is not multiplicative at trial {t}")
        return f"{trials} random balanced pairs map multiplicatively"

    def check_deg_additive(rng) -> str:
        zb = zbasis()
        for t in range(trials):
            x, y = draw_target(rng), draw_target(rng)
            prod = x * y
            _require(not prod.is_zero(),
                     lambda: f"product of nonzero elements vanished at trial {t}")
            _require(qt_deg(prod, zb) == tuple(map(add, qt_deg(x, zb), qt_deg(y, zb))),
                     lambda: f"degree is not additive at trial {t}")
        return f"degree additive on {trials} random pairs"

    def check_basis(rng) -> str:
        zb = zbasis()
        for name, z in zip(tri.punctures, zb.vectors):
            want = quantum_torus.central_puncture_exponent(tri, name)
            _require(z == want, lambda: f"row for {name} is not the puncture exponent")
        for z in zb.vectors:
            _require(balanced_check(tri, z), "basis vector is not balanced")
        return f"unimodular balanced basis of rank {len(zb.vectors)}"

    def check_center_free(rng) -> str:
        zb = zbasis()
        p = len(tri.punctures)
        box = list(product(range(order), repeat=p))
        elements = {k: draw_source(rng) for k in box}
        cert = center_free_certificate(order, target=target, zbasis=zb, elements=elements)
        _require(cert.certified, lambda: f"certificate refused: {_false_fields(cert)} false")
        return f"certified over the full residue box of size {len(box)}"

    checks = [
        (f"qtorus-{label}-exchange-matrix", check_sigma),
        (f"qtorus-{label}-puncture-monomials-central", check_central),
        (f"qtorus-{label}-power-map-multiplicative", check_frobenius),
        (f"qtorus-{label}-degree-additive", check_deg_additive),
        (f"qtorus-{label}-puncture-basis", check_basis),
    ]
    if len(tri.punctures) == 1:
        checks.append((f"qtorus-{label}-center-free", check_center_free))
    return checks
