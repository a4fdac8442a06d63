"""Suite internals: the suites' random draws, the deferred failure text and
the shared spanning count."""

import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qskein import suites
from qskein.chebyshev import Polynomial
from qskein.oq_sl2 import OqAlgebra
from qskein.quantum_torus import (
    QuantumTorus,
    Triangulation,
    balanced_lattice_basis,
    four_punctured_sphere,
    once_punctured_torus,
)
from qskein.scalars import ScalarRing
from qskein.suites import _below, _random_polynomial, _require
from qskein.suites.bigon import _frobenius_sampler, _index_sampler, _key_sampler
from qskein.suites.qtorus import _balanced_sampler


@pytest.mark.parametrize("seed", [0, 1, 31])
def test_below_matches_randint(seed):
    """The same values and the same stream as randint(0, n - 1); n = 1 still
    reads one bit."""
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for n in range(1, 71):
        for _ in range(20):
            assert _below(new_rng.getrandbits, n) == old_rng.randint(0, n - 1)
            assert new_rng.getstate() == old_rng.getstate()
    before = new_rng.getstate()
    _below(new_rng.getrandbits, 1)
    assert new_rng.getstate() != before


def old_random_polynomial(rng, top):
    """The earlier definition: the degree by randint, then the coefficients."""
    degree = rng.randint(0, top)
    coeffs = [rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[degree] = 1
    return Polynomial(dict(enumerate(coeffs)))


@pytest.mark.parametrize("top", [0, 20, 35, 105])
def test_random_polynomial_matches_the_old_definition(top):
    new_rng, old_rng = random.Random(top), random.Random(top)
    for _ in range(300):
        new, old = _random_polynomial(new_rng, top), old_random_polynomial(old_rng, top)
        assert new == old
        assert repr(new) == repr(old)
        assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("order", [1, 3, 7, 21])
def test_certificate_keys_match_the_old_definition(order):
    """randint(1, 4) keys, then sample(range(N^3), size), decoded."""
    draw = _key_sampler(order)
    n2 = order * order
    new_rng, old_rng = random.Random(order), random.Random(order)
    for _ in range(2000):
        size = old_rng.randint(1, min(4, n2 * order))
        old = [(0, p // n2, p // order % order, p % order)
               for p in old_rng.sample(range(n2 * order), size)]
        assert draw(new_rng) == old
        assert new_rng.getstate() == old_rng.getstate()


def test_require_builds_its_message_only_on_failure():
    calls = []

    def message():
        calls.append(1)
        return "it failed"

    _require(True, message)
    assert calls == []
    with pytest.raises(suites.CheckFailure, match=r"^it failed$"):
        _require(False, message)
    assert calls == [1]
    with pytest.raises(suites.CheckFailure, match=r"^plain text$"):
        _require(False, "plain text")


def old_random_pbw_index(rng, cap):
    """The earlier definition, through randint."""
    k1 = rng.randint(0, cap)
    k2 = 0 if k1 else rng.randint(0, cap)
    return (k1, k2, rng.randint(0, cap), rng.randint(0, cap))


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 14, 40])
def test_random_pbw_index_matches_the_old_definition(cap):
    draw = _index_sampler(cap)
    new_rng, old_rng = random.Random(cap), random.Random(cap)
    for _ in range(2000):
        assert draw(new_rng) == old_random_pbw_index(old_rng, cap)
        assert new_rng.getstate() == old_rng.getstate()


def old_random_frobenius_element(alg, rng, cap=2, fallbacks=None):
    """The earlier definition, through randint, element sums and scalar
    multiples; ``fallbacks`` counts the draws whose terms cancel."""
    out = alg.zero()
    for _ in range(rng.randint(1, 2)):
        u = old_random_pbw_index(rng, cap)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if rng.random() < 0.5:
            c = -c
        out = out + alg.frobenius_monomial(u) * c
    if out.is_zero():
        out = alg.one()
        if fallbacks is not None:
            fallbacks.append(1)
    return out


@pytest.mark.parametrize("order, cap", [(3, 2), (7, 2), (21, 2), (5, 0), (3, 4)])
def test_random_frobenius_element_matches_the_old_definition(order, cap):
    alg = OqAlgebra(ScalarRing.root_of_unity(order))
    draw = _frobenius_sampler(alg, cap)
    new_rng, old_rng = random.Random(order * 1000 + cap), random.Random(order * 1000 + cap)
    fallbacks = []
    for _ in range(400):
        new = draw(new_rng)
        old = old_random_frobenius_element(alg, old_rng, cap, fallbacks)
        assert new == old
        assert list(new.terms) == list(old.terms)
        assert repr(new) == repr(old)
        assert new_rng.getstate() == old_rng.getstate()
    if cap == 0:  # every index is 0, so some draws cancel and fall back to one
        assert fallbacks


def test_random_frobenius_element_keeps_its_own_ring():
    """Rings compare equal by order, but an algebra over a ring built apart
    gets coefficients of that very ring, not of the first one drawn from."""
    first, second = ScalarRing.root_of_unity(7), ScalarRing.root_of_unity(7)
    assert first == second and first is not second
    rng = random.Random(7)
    for ring in (first, second, first):
        draw = _frobenius_sampler(OqAlgebra(ring))
        for _ in range(20):
            element = draw(rng)
            assert all(c.ring is ring for c in element.terms.values())


def old_random_balanced_element(torus, tri, basis, rng, cap=2):
    """The earlier definition, through element sums of ordered monomials."""
    n = tri.edge_count
    terms = torus.zero()
    for _ in range(rng.randint(1, 2)):
        coords = [rng.randint(-cap, cap) for _ in range(n)]
        vec = [0] * n
        for c, bv in zip(coords, basis):
            for j in range(n):
                vec[j] += c * bv[j]
        coeff = rng.randint(1, 4)
        if rng.random() < 0.5:
            coeff = -coeff
        terms = terms + torus.ordered_monomial(tuple(vec), coeff)
    if terms.is_zero():
        terms = torus.one()
    return terms


@pytest.mark.parametrize("make", [once_punctured_torus, four_punctured_sphere])
@pytest.mark.parametrize("order, cap", [(3, 2), (11, 2), (5, 0), (7, 3)])
def test_random_balanced_element_matches_the_old_definition(make, order, cap):
    tri = make()
    ring = ScalarRing.root_of_unity(order)
    torus = QuantumTorus.from_triangulation(ring, tri, ring.zeta_pow(1) ** (order * order))
    basis = balanced_lattice_basis(tri)
    draw = _balanced_sampler(torus, basis, cap)
    for seed in range(4):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for _ in range(150):
            new = draw(new_rng)
            old = old_random_balanced_element(torus, tri, basis, old_rng, cap)
            assert new == old
            assert list(new.terms) == list(old.terms)
            assert repr(new) == repr(old)
            assert new_rng.getstate() == old_rng.getstate()


def test_random_balanced_element_matches_the_old_definition_on_150_edges():
    path = Path(__file__).parent / "data" / "glued-150.json"
    tri = Triangulation.from_json(path.read_text())
    ring = ScalarRing.root_of_unity(3)
    torus = QuantumTorus.from_triangulation(ring, tri, ring.zeta_pow(1))
    basis = balanced_lattice_basis(tri)
    draw = _balanced_sampler(torus, basis)
    new_rng, old_rng = random.Random(150), random.Random(150)
    for _ in range(6):
        new = draw(new_rng)
        old = old_random_balanced_element(torus, tri, basis, old_rng)
        assert new == old
        assert list(new.terms) == list(old.terms)
        assert repr(new) == repr(old)
        assert new_rng.getstate() == old_rng.getstate()


def test_balanced_sampler_keeps_its_own_ring():
    """Rings compare equal by order, but a sampler over a torus whose ring
    was built apart gets coefficients of that very ring, not of another."""
    first, second = ScalarRing.root_of_unity(7), ScalarRing.root_of_unity(7)
    assert first == second and first is not second
    tri, rng = four_punctured_sphere(), random.Random(7)
    basis = balanced_lattice_basis(tri)
    for ring in (first, second, first):
        torus = QuantumTorus.from_triangulation(ring, tri, ring.zeta_pow(1))
        draw = _balanced_sampler(torus, basis)
        for _ in range(20):
            assert all(c.ring is ring for c in draw(rng).terms.values())


@pytest.mark.parametrize(
    "suite, check_id",
    [
        (lambda: suites.bigon_suite(3, 1, 1), "bigon-spanning-count"),
        (lambda: suites.counts_suite(3), "counts-spanning-formula"),
    ],
    ids=["bigon", "counts"],
)
def test_spanning_count_checks_share_one_enumeration(monkeypatch, suite, check_id):
    checks = dict(suite())
    monkeypatch.setattr("qskein.dimensions.spanning_count_formula", lambda n: 0)
    with pytest.raises(suites.CheckFailure, match=r"^enumeration 40 != formula 0$"):
        checks[check_id](random.Random(0))


@pytest.mark.parametrize("suite", list(suites.SUITES))
def test_suite_table_lists_each_builders_knobs_in_order(suite):
    builder = getattr(suites, suite.replace("-", "_") + "_suite")
    order, *knobs = inspect.signature(builder).parameters
    assert order == "order"
    assert tuple(knobs) == suites.SUITES[suite]
