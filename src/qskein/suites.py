"""Named verification suites behind the command line front end.

Each suite is a list of (check id, callable) pairs.  A check receives its
own random.Random instance seeded from the global seed and the check id,
so reports are deterministic for a given seed whatever order the checks
run in.  Checks return a short detail string on success and raise
CheckFailure (or any exception, reported as an error) otherwise.

Each suite builder imports the layers it uses when it is called, so a
command loads only the layers of the suite it runs.
"""

from __future__ import annotations

import random
import time
import zlib
from fractions import Fraction
from functools import cache, partial
from itertools import product
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .chebyshev import Polynomial
    from .oq_sl2 import OqAlgebra
    from .quantum_torus import QuantumTorus, Triangulation


MAX_WORK = 3 * 10**7
"""Largest work size a suite accepts, checked before it builds anything: the
entries of its index sets, tables and matrices, the coefficient pairs of
its largest polynomial product, and an N^3 term for the expansions that grow
fastest in N (``qtorus``, ``torus-skein``).  It bounds memory, not time;
``counts`` streams its index sets, so there it bounds run time only."""

MAX_EXP = 12
"""Largest ``bigon`` exponent cap, checked before anything is built: the
word-rewriting check's run time grows steeply in it, and unevenly by seed."""


class CheckFailure(Exception):
    """A verification check did not hold."""


class CheckResult(NamedTuple):
    id: str
    status: str
    detail: str
    elapsed_ms: float


Check = tuple[str, Callable[[random.Random], str]]


def run_checks(checks: Sequence[Check], seed: int) -> list[CheckResult]:
    """Run every check with a per-check seeded RNG; sorted by id."""
    results = []
    for check_id, fn in checks:
        rng = random.Random(zlib.crc32(check_id.encode()) ^ seed)
        start = time.perf_counter()
        try:
            detail = fn(rng)
            status = "pass"
        except CheckFailure as exc:
            detail = str(exc)
            status = "fail"
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            detail = f"{type(exc).__name__}: {exc}"
            status = "error"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(check_id, status, detail, round(elapsed, 3)))
    return sorted(results, key=lambda r: r.id)


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def _false_fields(cert) -> str:
    """Names of a certificate's False fields, ``certified`` aside."""
    names = [name for name in cert._fields if name != "certified"]
    return ", ".join(name for name in names if getattr(cert, name) is False)


def _refuse_oversized(suite: str, size: int):
    if size > MAX_WORK:
        raise ValueError(f"{suite} work size {size} exceeds {MAX_WORK}; refused")


# ---------------------------------------------------------------------------
# random generators shared by the suites


def _random_pbw_index(rng: random.Random, cap: int):
    k1 = rng.randint(0, cap)
    k2 = 0 if k1 else rng.randint(0, cap)
    return (k1, k2, rng.randint(0, cap), rng.randint(0, cap))


def _random_frobenius_element(alg: OqAlgebra, rng: random.Random, cap: int = 2):
    out = alg.zero()
    for _ in range(rng.randint(1, 2)):
        u = _random_pbw_index(rng, cap)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if rng.random() < 0.5:
            c = -c
        out = out + alg.frobenius_monomial(u) * c
    if out.is_zero():
        out = alg.one()
    return out


def _random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    from .chebyshev import Polynomial

    coeffs = {}
    for d in range(degree + 1):
        if rng.random() < 0.6:
            c = rng.randint(-6, 6)
            if c:
                coeffs[d] = c
    if not coeffs:
        coeffs[degree] = 1
    return Polynomial(coeffs)


def _random_balanced_element(
    torus: QuantumTorus,
    tri: Triangulation,
    basis: Sequence[tuple[int, ...]],
    rng: random.Random,
    cap: int = 2,
):
    n = tri.edge_count
    terms = torus.zero()
    for _ in range(rng.randint(1, 2)):
        coords = [rng.randint(-cap, cap) for _ in range(n)]
        vec = [0] * n
        for c, bv in zip(coords, basis):
            for j in range(n):
                vec[j] += c * bv[j]
        coeff = Fraction(rng.randint(1, 4))
        if rng.random() < 0.5:
            coeff = -coeff
        terms = terms + torus.ordered_monomial(tuple(vec), coeff)
    if terms.is_zero():
        terms = torus.one()
    return terms


# ---------------------------------------------------------------------------
# bigon suite


def bigon_suite(order: int, trials: int, max_exp: int) -> list[Check]:
    from .dimensions import spanning_count_formula
    from .oq_sl2 import OqAlgebra, iter_spanning_set, leading_index
    from .scalars import ScalarRing

    if max_exp > MAX_EXP:
        raise ValueError(f"bigon exponent cap {max_exp} exceeds {MAX_EXP}; refused")
    _refuse_oversized("bigon", order**3 + spanning_count_formula(order))
    ring = ScalarRing.root_of_unity(order)
    alg = OqAlgebra(ring)

    def check_word_vs_structured(rng: random.Random) -> str:
        for _ in range(trials):
            u = _random_pbw_index(rng, max_exp)
            v = _random_pbw_index(rng, max_exp)
            word = (
                "a" * u[0] + "d" * u[1] + "b" * u[2] + "c" * u[3]
                + "a" * v[0] + "d" * v[1] + "b" * v[2] + "c" * v[3]
            )
            lhs = alg.normal_form(word)
            rhs = alg.power_product(u) * alg.power_product(v)
            _require(lhs == rhs, f"normal form disagrees on {u} * {v}")
        return f"{trials} random products agree across both engines"

    def check_degree_formula(rng: random.Random) -> str:
        count = 0
        for k in product(range(max_exp + 1), repeat=4):
            if k[0] and k[1]:
                continue
            _require(
                alg.power_product(k).deg() == leading_index(k),
                f"degree mismatch at {k}",
            )
            count += 1
        return f"degree formula matches the expansion oracle on {count} indices"

    def check_diagonal_tower(rng: random.Random) -> str:
        top = min(10, 2 * order)
        for t in range(top + 1):
            x = alg.power_product((t, 0, 0, 0)) * alg.power_product((0, t, 0, 0))
            _require(
                alg.in_diagonal_tower(x, t),
                f"a^{t} d^{t} escapes the diagonal tower",
            )
        return f"a^t d^t lies in the tower for t <= {top}"

    def check_frobenius_commutes(rng: random.Random) -> str:
        gens = [alg.frobenius_generator(l) for l in "abcd"]
        for i in range(4):
            for j in range(i + 1, 4):
                _require(
                    gens[i] * gens[j] == gens[j] * gens[i],
                    f"generators {i} and {j} of the power subalgebra do not commute",
                )
        return "N-th powers of the generators pairwise commute"

    def check_independence(rng: random.Random) -> str:
        n2 = order * order
        for _ in range(trials):
            size = rng.randint(1, min(4, n2 * order))
            # the same draws as sampling the list basis_box(order), decoded
            keys = [(0, p // n2, p // order % order, p % order)
                    for p in rng.sample(range(n2 * order), size)]
            coeff_map = {k: _random_frobenius_element(alg, rng) for k in keys}
            cert = alg.independence_certificate(coeff_map)
            _require(
                cert.certified,
                f"certificate refused on keys {sorted(keys)}: {_false_fields(cert)} false",
            )
        return f"{trials} random coefficient maps certified independent"

    def check_localized(rng: random.Random) -> str:
        runs = max(20, trials // 4)
        for _ in range(runs):
            m = _random_pbw_index(rng, max_exp + 2)
            alg.localized_express(m)
        return f"{runs} random monomials re-expanded exactly"

    def check_spanning(rng: random.Random) -> str:
        runs = max(20, trials // 4)
        for _ in range(runs):
            m = _random_pbw_index(rng, max_exp + 2)
            alg.express_in_spanning(m)
        return f"{runs} random monomials written over the spanning set"

    def check_spanning_count(rng: random.Random) -> str:
        got = sum(1 for _ in iter_spanning_set(order))
        want = spanning_count_formula(order)
        _require(got == want, f"enumeration {got} != formula {want}")
        return f"spanning set has {got} elements"

    return [
        ("bigon-degree-formula-vs-oracle", check_degree_formula),
        ("bigon-diagonal-tower-membership", check_diagonal_tower),
        ("bigon-independence-certificates", check_independence),
        ("bigon-localized-re-expansion", check_localized),
        ("bigon-power-subalgebra-commutes", check_frobenius_commutes),
        ("bigon-spanning-count", check_spanning_count),
        ("bigon-spanning-re-expansion", check_spanning),
        ("bigon-word-vs-structured-product", check_word_vs_structured),
    ]


# ---------------------------------------------------------------------------
# quantum torus suite


def qtorus_suite(
    order: int, trials: int, triangulation: Triangulation | None = None
) -> list[Check]:
    from . import quantum_torus
    from .quantum_torus import (
        QuantumTorus,
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
    from .scalars import ScalarRing

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
        mu = ring.zeta_pow(1)
        nu = mu ** (order * order)
        target = QuantumTorus.from_triangulation(ring, tri, mu)
        source = QuantumTorus.from_triangulation(ring, tri, nu)
        lattice = balanced_lattice_basis(tri)
        # built on first use inside a check, so a failure is that check's error
        zbasis = cache(partial(balanced_puncture_basis, tri))

        def check_sigma(rng, tri=tri) -> str:
            sigma = quantum_torus.exchange_matrix(tri)
            n = len(sigma)
            for i in range(n):
                for j in range(n):
                    where = f"({i}, {j})"
                    _require(sigma[i][j] == -sigma[j][i], f"not antisymmetric at {where}")
                    _require(-2 <= sigma[i][j] <= 2, f"entry {where} is out of range")
            return f"{n}x{n} exchange matrix is antisymmetric with entries in -2..2"

        def check_central(rng, tri=tri, target=target) -> str:
            for name in tri.punctures:
                h = central_puncture_element(target, name)
                _require(is_central(target, h), f"puncture element {name} not central")
                _require(
                    balanced_check(tri, next(iter(h.terms))),
                    f"puncture exponent at {name} is not balanced",
                )
            return f"{len(tri.punctures)} puncture monomials are central and balanced"

        def check_frobenius(
            rng, tri=tri, target=target, source=source, lattice=lattice
        ) -> str:
            for t in range(trials):
                x = _random_balanced_element(source, tri, lattice, rng)
                y = _random_balanced_element(source, tri, lattice, rng)
                lhs = frobenius_map(x * y, target, order)
                rhs = frobenius_map(x, target, order) * frobenius_map(y, target, order)
                _require(lhs == rhs, f"power map is not multiplicative at trial {t}")
            return f"{trials} random balanced pairs map multiplicatively"

        def check_deg_additive(
            rng, tri=tri, target=target, lattice=lattice, zbasis=zbasis
        ) -> str:
            zb = zbasis()
            for t in range(trials):
                x = _random_balanced_element(target, tri, lattice, rng)
                y = _random_balanced_element(target, tri, lattice, rng)
                prod = x * y
                _require(
                    not prod.is_zero(),
                    f"product of nonzero elements vanished at trial {t}",
                )
                _require(
                    qt_deg(prod, zb) == tuple(
                        a + b for a, b in zip(qt_deg(x, zb), qt_deg(y, zb))
                    ),
                    f"degree is not additive at trial {t}",
                )
            return f"degree additive on {trials} random pairs"

        def check_basis(rng, tri=tri, zbasis=zbasis) -> str:
            zb = zbasis()
            for name, z in zip(tri.punctures, zb.vectors):
                want = quantum_torus.central_puncture_exponent(tri, name)
                _require(z == want, f"row for {name} is not the puncture exponent")
            for z in zb.vectors:
                _require(balanced_check(tri, z), "basis vector is not balanced")
            return f"unimodular balanced basis of rank {len(zb.vectors)}"

        def check_center_free(rng, tri=tri, target=target, source=source,
                              lattice=lattice, zbasis=zbasis) -> str:
            zb = zbasis()
            p = len(tri.punctures)
            box = list(product(range(order), repeat=p))
            x_map = {}
            elements = {}
            for k in box:
                l = _random_balanced_element(source, tri, lattice, rng)
                elements[k] = l
                x_map[k] = qt_deg(l, zb)
            cert = center_free_certificate(
                order, x_map, target=target, zbasis=zb, elements=elements
            )
            _require(cert.certified, f"certificate refused: {_false_fields(cert)} false")
            return f"certified over the full residue box of size {len(box)}"

        suffix = label
        checks.extend(
            [
                (f"qtorus-{suffix}-exchange-matrix", check_sigma),
                (f"qtorus-{suffix}-puncture-monomials-central", check_central),
                (f"qtorus-{suffix}-power-map-multiplicative", check_frobenius),
                (f"qtorus-{suffix}-degree-additive", check_deg_additive),
                (f"qtorus-{suffix}-puncture-basis", check_basis),
            ]
        )
        if len(tri.punctures) == 1:
            checks.append((f"qtorus-{suffix}-center-free", check_center_free))
    return checks


# ---------------------------------------------------------------------------
# torus skein suite


def torus_skein_suite(order: int, kmax: int, trials: int) -> list[Check]:
    from . import torus_skein
    from .chebyshev import Polynomial, chebyshev_a, chebyshev_reduce, chebyshev_t

    # the largest polynomial product, and re-expanding every x^m, m <= 3N
    _refuse_oversized("torus-skein", max(5 * order, kmax * order) ** 2 + order**3)

    def check_round_trip(rng: random.Random) -> str:
        for t in range(trials):
            p = _random_polynomial(rng, rng.randint(0, 20))
            constant, coeffs = torus_skein.a_basis_expand(p)
            _require(
                torus_skein.a_basis_build(constant, coeffs) == p,
                f"A-basis expansion does not round-trip at trial {t}",
            )
        return f"{trials} random polynomials round-trip through the A-basis"

    def check_kill_rule(rng: random.Random) -> str:
        for i in range(1, 5 * order + 1):
            reduced = torus_skein.s1s2_reduce(chebyshev_a(i), order)
            if (i + 2) % order == 0:
                _require(
                    reduced.e_coeffs == ((i, Fraction(1)),)
                    and not reduced.empty_coeff,
                    f"A_{i} should survive as e_{i}",
                )
            else:
                _require(reduced.is_zero(), f"A_{i} should die")
        return f"kill rule verified for indices up to {5 * order}"

    def check_diagonal(rng: random.Random) -> str:
        for k in range(1, kmax + 1):
            reduced = torus_skein.s1s2_reduce(chebyshev_t(k * order), order)
            _require(
                not reduced.empty_coeff
                and reduced.e_coeffs == ((k * order - 2, Fraction(-2)),),
                f"T_{k * order} does not reduce to -2 e_{k * order - 2}",
            )
        return f"T_kN reduces to -2 e_(kN-2) for k <= {kmax}"

    def check_matrix(rng: random.Random) -> str:
        matrix = torus_skein.s1s2_frobenius_matrix(order, kmax)
        size = kmax + 1
        for i in range(size):
            for j in range(size):
                want = Fraction(2 if i == 0 else -2) if i == j else Fraction(0)
                _require(matrix[i][j] == want, f"entry ({i},{j}) is {matrix[i][j]}")
        return f"{size}x{size} matrix is diag(2, -2, ..., -2)"

    def check_free_rank(rng: random.Random) -> str:
        for m in range(3 * order + 1):
            form = chebyshev_reduce(Polynomial({m: Fraction(1)}), order)
            _require(
                form.substitute() == Polynomial({m: Fraction(1)}),
                f"x^{m} does not round-trip through the T_N expansion",
            )
        return f"x^m certified in span(x^j T_N^k) for m <= {3 * order}"

    return [
        ("torus-skein-a-basis-round-trip", check_round_trip),
        ("torus-skein-frobenius-diagonal", check_diagonal),
        ("torus-skein-frobenius-matrix-invertible", check_matrix),
        ("torus-skein-kill-rule", check_kill_rule),
        ("torus-skein-solid-torus-free-rank", check_free_rank),
    ]


# ---------------------------------------------------------------------------
# chebyshev suite


def chebyshev_suite(order: int, trials: int) -> list[Check]:
    from .chebyshev import chebyshev_reduce, chebyshev_s, chebyshev_t

    _refuse_oversized("chebyshev", (5 * order) ** 2)

    def check_t_minus_s(rng: random.Random) -> str:
        for n in range(2, 13):
            _require(
                chebyshev_t(n) == chebyshev_s(n) - chebyshev_s(n - 2),
                f"T_{n} != S_{n} - S_{n - 2}",
            )
        return "T_n = S_n - S_(n-2) for 2 <= n <= 12"

    def check_composition(rng: random.Random) -> str:
        for m in range(1, 7):
            for n in range(1, 7):
                _require(
                    chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n),
                    f"T_{m} o T_{n} != T_{m * n}",
                )
        return "T_m o T_n = T_(mn) for m, n <= 6"

    def check_reduce(rng: random.Random) -> str:
        for t in range(trials):
            p = _random_polynomial(rng, rng.randint(0, 5 * order))
            form = chebyshev_reduce(p, order)
            _require(
                form.substitute() == p, f"reduction does not round-trip at trial {t}"
            )
        return f"{trials} random polynomials of degree <= {5 * order} round-trip"

    return [
        ("chebyshev-composition", check_composition),
        ("chebyshev-reduce-round-trip", check_reduce),
        ("chebyshev-t-minus-s", check_t_minus_s),
    ]


# ---------------------------------------------------------------------------
# counts suite


def counts_suite(order: int) -> list[Check]:
    from .dimensions import spanning_count_formula
    from .oq_sl2 import iter_basis_box, iter_spanning_set

    _refuse_oversized("counts", order**3 + spanning_count_formula(order))

    def check_formula(rng: random.Random) -> str:
        got = sum(1 for _ in iter_spanning_set(order))
        want = spanning_count_formula(order)
        _require(got == want, f"enumeration {got} != formula {want}")
        return f"spanning enumeration matches the formula: {got}"

    def check_box(rng: random.Random) -> str:
        got = sum(1 for _ in iter_basis_box(order))
        _require(got == order**3, f"box has {got} elements, wanted {order ** 3}")
        return f"basis box has exactly {got} elements"

    return [
        ("counts-basis-box", check_box),
        ("counts-spanning-formula", check_formula),
    ]
