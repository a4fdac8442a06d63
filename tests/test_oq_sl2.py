"""The quantized SL2 coordinate algebra: rewriting, degrees, certificates."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from qskein.oq_sl2 import (
    OqAlgebra,
    basis_box,
    is_pbw_index,
    leading_index,
    spanning_set,
    spanning_wing,
)
from qskein.scalars import ScalarRing


GENERIC = ScalarRing.generic()
ROOT3 = ScalarRing.root_of_unity(3)


def random_pbw_index(rng, cap):
    k1 = rng.randint(0, cap)
    k2 = 0 if k1 else rng.randint(0, cap)
    return (k1, k2, rng.randint(0, cap), rng.randint(0, cap))


# -- defining relations and the rewriting engine -----------------------------


def test_defining_relations_generic():
    alg = OqAlgebra(GENERIC)
    a, b = alg.generator("a"), alg.generator("b")
    c, d = alg.generator("c"), alg.generator("d")
    q2 = GENERIC.q_pow(2)
    assert b * a == a * b * q2
    assert c * a == a * c * q2
    assert d * b == b * d * q2
    assert d * c == c * d * q2
    assert c * b == b * c
    assert a * d == b * c * GENERIC.q_pow(-2) + alg.one()
    assert d * a == b * c * q2 + alg.one()


def test_determinant_relation_both_orders():
    for ring in (GENERIC, ROOT3):
        alg = OqAlgebra(ring)
        a, d = alg.generator("a"), alg.generator("d")
        b, c = alg.generator("b"), alg.generator("c")
        assert a * d - b * c * ring.q_pow(-2) == alg.one()
        assert d * a - b * c * ring.q_pow(2) == alg.one()


def test_rewriting_confluence_exhaustive_short_words():
    """Normal forms must not depend on which reducible pair fires first."""
    alg = OqAlgebra(GENERIC)
    for length in range(7):
        for tup in itertools.product("adbc", repeat=length):
            word = "".join(tup)
            assert alg.normal_form(word) == alg.normal_form(
                word, strategy="rightmost"
            ), word


def test_normal_form_input_forms():
    alg = OqAlgebra(GENERIC)
    x = alg.normal_form("da")
    assert x == alg.normal_form({"da": 1})
    assert x == alg.normal_form([(Fraction(1), "da")])
    combined = alg.normal_form({"ab": 2, "ba": -1})
    assert combined == alg.normal_form("ab") * 2 - alg.normal_form("ba")
    with pytest.raises(ValueError):
        alg.normal_form("axb")
    with pytest.raises(ValueError):
        alg.normal_form("ab", strategy="middle")


def test_word_engine_matches_structured_product():
    rng = random.Random(1201)
    for ring in (GENERIC, ROOT3):
        alg = OqAlgebra(ring)
        for _ in range(40):
            u = random_pbw_index(rng, 3)
            v = random_pbw_index(rng, 3)
            word = (
                "a" * u[0] + "d" * u[1] + "b" * u[2] + "c" * u[3]
                + "a" * v[0] + "d" * v[1] + "b" * v[2] + "c" * v[3]
            )
            assert alg.normal_form(word) == alg.power_product(u) * alg.power_product(v)


def test_structured_product_associative():
    rng = random.Random(77)
    alg = OqAlgebra(ROOT3)
    for _ in range(30):
        x = alg.basis_monomial(random_pbw_index(rng, 2)) + alg.basis_monomial(
            random_pbw_index(rng, 2)
        ) * Fraction(rng.randint(1, 3))
        y = alg.basis_monomial(random_pbw_index(rng, 2))
        z = alg.basis_monomial(random_pbw_index(rng, 2)) - alg.one()
        assert (x * y) * z == x * (y * z)


def test_concatenation_bridge():
    """normal_form of a concatenation equals the product of normal forms."""
    rng = random.Random(4096)
    alg = OqAlgebra(GENERIC)
    letters = "adbc"
    for _ in range(40):
        w1 = "".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        w2 = "".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        assert alg.normal_form(w1 + w2) == alg.normal_form(w1) * alg.normal_form(w2)


def test_power_product_general_exponents():
    alg = OqAlgebra(GENERIC)
    for k in [(2, 1, 0, 0), (1, 2, 1, 0), (3, 3, 0, 2), (0, 0, 2, 2)]:
        word = "a" * k[0] + "d" * k[1] + "b" * k[2] + "c" * k[3]
        assert alg.power_product(k) == alg.normal_form(word)
    with pytest.raises(ValueError):
        alg.power_product((-1, 0, 0, 0))


# -- index sets ----------------------------------------------------------------


def test_pbw_index_predicate():
    assert is_pbw_index((3, 0, 1, 2))
    assert is_pbw_index((0, 4, 0, 0))
    assert not is_pbw_index((1, 1, 0, 0))
    assert not is_pbw_index((0, -1, 0, 0))


@pytest.mark.parametrize("order", [1, 3, 5, 7, 9])
def test_box_and_wing_counts(order):
    box = basis_box(order)
    wing = spanning_wing(order)
    assert len(box) == order ** 3
    assert len(set(box)) == len(box)
    assert set(box).isdisjoint(wing)
    full = spanning_set(order)
    assert set(full) == set(box) | set(wing)
    assert len(full) == 2 * order ** 3 - order * (order + 1) * (2 * order + 1) // 6


def test_box_and_wing_membership_shape():
    order = 5
    for k in basis_box(order):
        assert k[0] == 0
        assert all(0 <= e < order for e in k)
    for k in spanning_wing(order):
        j = order - k[0]
        assert 1 <= j <= order - 1
        assert k[1] == 0
        assert k[2] < j or k[3] < j
        assert 0 <= k[2] < order and 0 <= k[3] < order


# -- the leading-index (degree) machinery ---------------------------------------


def test_leading_index_cases():
    assert leading_index((2, 2, 1, 0)) == (0, 0, 3, 2)
    assert leading_index((3, 1, 0, 0)) == (2, 0, 1, 1)
    assert leading_index((1, 4, 2, 2)) == (0, 3, 3, 3)
    assert leading_index((0, 0, 5, 7)) == (0, 0, 5, 7)
    with pytest.raises(ValueError):
        leading_index((-1, 0, 0, 0))


def test_leading_index_fixed_by_pbw():
    rng = random.Random(55)
    for _ in range(50):
        k = random_pbw_index(rng, 6)
        assert leading_index(k) == k


def test_degree_formula_small_exhaustive():
    """Closed form against the expansion oracle, mixed exponents included."""
    alg = OqAlgebra(ROOT3)
    cap = 4
    for k in itertools.product(range(cap + 1), repeat=4):
        assert alg.monomial_degree(k) == leading_index(k)


def test_degree_formula_generic_spot():
    alg = OqAlgebra(GENERIC)
    for k in [(2, 1, 1, 0), (1, 3, 0, 2), (4, 4, 0, 0), (0, 2, 3, 1)]:
        assert alg.monomial_degree(k) == leading_index(k)
        assert alg.monomial_degree(k, use_word_engine=True) == leading_index(k)


def test_degree_of_sum_with_distinct_leads():
    """A combination of monomials with pairwise distinct degrees cannot vanish."""
    rng = random.Random(300)
    alg = OqAlgebra(ROOT3)
    for _ in range(25):
        seen = set()
        x = alg.zero()
        for _ in range(rng.randint(1, 5)):
            k = random_pbw_index(rng, 4)
            if leading_index(k) in seen:
                continue
            seen.add(leading_index(k))
            x = x + alg.power_product(k) * Fraction(rng.randint(1, 5))
        assert not x.is_zero()
        assert x.deg() == max(seen)


def test_deg_of_zero_rejected():
    alg = OqAlgebra(ROOT3)
    with pytest.raises(ValueError):
        alg.zero().deg()


def test_first_pair_difference_determines_pbw_pair():
    cap = 9
    pairs = [(k1, 0) for k1 in range(cap + 1)] + [(0, k2) for k2 in range(1, cap + 1)]
    diffs = [u[0] - u[1] for u in pairs]
    assert len(set(diffs)) == len(pairs)


@pytest.mark.parametrize("order", [3, 5])
def test_lifted_leading_index_injective(order):
    ring = ScalarRing.root_of_unity(order)
    alg = OqAlgebra(ring)
    us = [
        (k1, k2, k3, k4)
        for k1 in range(3)
        for k2 in range(3)
        if not (k1 and k2)
        for k3 in range(3)
        for k4 in range(3)
    ]
    seen = {}
    for u in us:
        for v in basis_box(order):
            idx = alg.lifted_leading_index(u, v)
            assert idx not in seen, (u, v, seen[idx])
            seen[idx] = (u, v)


def test_lifted_leading_index_validates_inputs():
    alg = OqAlgebra(ROOT3)
    with pytest.raises(ValueError):
        alg.lifted_leading_index((1, 1, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        alg.lifted_leading_index((1, 0, 0, 0), (0, 3, 0, 0))
    with pytest.raises(ValueError):
        alg.lifted_leading_index((1, 0, 0, 0), (1, 0, 0, 0))


# -- diagonal towers -------------------------------------------------------------


def test_diagonal_power_membership():
    for ring in (ScalarRing.root_of_unity(5), GENERIC):
        alg = OqAlgebra(ring)
        for t in range(11):
            x = alg.power_product((t, 0, 0, 0)) * alg.power_product((0, t, 0, 0))
            assert alg.in_diagonal_tower(x, t)
            assert x == alg.diagonal_expansion(t)


def test_diagonal_tower_rejects():
    alg = OqAlgebra(ROOT3)
    bc = alg.basis_monomial((0, 0, 1, 1))
    # no constant term 1
    assert not alg.in_diagonal_tower(bc, 1)
    # wrong top degree
    assert not alg.in_diagonal_tower(alg.one() + bc, 2)
    # off-diagonal support
    assert not alg.in_diagonal_tower(alg.one() + alg.basis_monomial((0, 0, 2, 1)), 2)
    # top coefficient that is not a power of q
    assert not alg.in_diagonal_tower(alg.one() + bc * 2, 1)


def test_diagonal_tower_sign_flag():
    alg = OqAlgebra(ROOT3)
    bc = alg.basis_monomial((0, 0, 1, 1))
    x = alg.one() - bc * ROOT3.q_pow(2)
    assert not alg.in_diagonal_tower(x, 1)
    assert alg.in_diagonal_tower(x, 1, allow_sign=True)


def test_tower_stable_under_d_conjugation():
    """d * f = g * d with g again in the tower; the base case is d(bc) = q^4 (bc)d."""
    alg = OqAlgebra(ROOT3)
    d = alg.generator("d")
    b, c = alg.generator("b"), alg.generator("c")
    assert d * (b * c) == (b * c) * d * ROOT3.q_pow(4)
    rng = random.Random(808)
    for t in range(1, 6):
        terms = {(0, 0, 0, 0): ROOT3.one}
        for g in range(1, t):
            terms[(0, 0, g, g)] = ROOT3.from_rational(rng.randint(-3, 3))
        terms[(0, 0, t, t)] = ROOT3.q_pow(rng.randint(0, 2))
        f = alg.element({k: v for k, v in terms.items() if not v.is_zero()})
        assert alg.in_diagonal_tower(f, t)
        g_elt = alg.element(
            {k: v * ROOT3.q_pow(4 * k[2]) for k, v in terms.items() if not v.is_zero()}
        )
        assert d * f == g_elt * d
        assert alg.in_diagonal_tower(g_elt, t)


# -- the commutative power subalgebra ------------------------------------------


@pytest.mark.parametrize("order", [3, 5, 7])
def test_power_generators_commute(order):
    ring = ScalarRing.root_of_unity(order)
    alg = OqAlgebra(ring)
    gens = [alg.frobenius_generator(l) for l in "abcd"]
    for i in range(4):
        for j in range(i + 1, 4):
            assert gens[i] * gens[j] == gens[j] * gens[i]


def test_power_generators_are_central():
    alg = OqAlgebra(ROOT3)
    for name in "abcd":
        big = alg.frobenius_generator(name)
        for l in "abcd":
            g = alg.generator(l)
            assert g * big == big * g


def test_frobenius_monomial_and_recognition():
    alg = OqAlgebra(ROOT3)
    x = alg.frobenius_monomial((2, 0, 1, 0))
    manual = (
        alg.frobenius_generator("a") ** 2 * alg.frobenius_generator("b")
    )
    assert x == manual
    assert alg.is_frobenius_element(x)
    assert alg.is_frobenius_element(x + alg.frobenius_monomial((0, 1, 0, 2)))
    assert not alg.is_frobenius_element(alg.generator("a"))
    with pytest.raises(ValueError):
        alg.frobenius_monomial((1, 1, 0, 0))


def test_quantum_binomial_collapse():
    """At order 3 the middle diagonal coefficients vanish: a^3 d^3 = 1 + (bc)^3."""
    alg = OqAlgebra(ROOT3)
    lhs = alg.diagonal_expansion(3)
    assert lhs == alg.one() + alg.basis_monomial((0, 0, 3, 3))


# -- independence and expression certificates -----------------------------------


def random_frobenius_coeff(alg, rng, cap=2):
    out = alg.zero()
    for _ in range(rng.randint(1, 3)):
        u = random_pbw_index(rng, cap)
        out = out + alg.frobenius_monomial(u) * Fraction(rng.randint(1, 5))
    return out if not out.is_zero() else alg.one()


def test_independence_certificate_random():
    rng = random.Random(60093)
    alg = OqAlgebra(ROOT3)
    box = basis_box(3)
    for _ in range(50):
        keys = rng.sample(box, rng.randint(1, 5))
        cmap = {k: random_frobenius_coeff(alg, rng) for k in keys}
        cert = alg.independence_certificate(cmap)
        assert cert.certified
        assert cert.indices_distinct
        assert cert.combination_nonzero
        assert len(set(cert.lifted_indices)) == len(cert.lifted_indices)


def test_independence_certificate_validates():
    alg = OqAlgebra(ROOT3)
    with pytest.raises(ValueError):
        alg.independence_certificate({(0, 3, 0, 0): alg.one()})
    with pytest.raises(ValueError):
        alg.independence_certificate({(0, 0, 0, 0): alg.zero()})
    with pytest.raises(ValueError):
        alg.independence_certificate({(0, 0, 0, 0): alg.generator("a")})


def test_localized_expression_identity():
    """d^(N s) O_m = sum over the box of the returned coefficients times O_v."""
    rng = random.Random(2900)
    alg = OqAlgebra(ROOT3)
    d_cubed = alg.power_product((0, 3, 0, 0))
    for _ in range(40):
        m = random_pbw_index(rng, 6)
        expr = alg.localized_express(m)
        lhs = alg.basis_monomial(m)
        for _ in range(expr.power):
            lhs = d_cubed * lhs
        rhs = alg.zero()
        for v, coeff in expr.coefficients.items():
            assert v in set(basis_box(3))
            assert alg.is_frobenius_element(coeff)
            rhs = rhs + coeff * alg.basis_monomial(v)
        assert lhs == rhs


def test_localized_power_zero_when_multiple_of_order():
    alg = OqAlgebra(ROOT3)
    for m in [(0, 0, 0, 0), (3, 0, 1, 2), (6, 0, 0, 1), (0, 2, 1, 1)]:
        expr = alg.localized_express(m)
        assert expr.power == 0
    assert alg.localized_express((4, 0, 0, 0)).power == 1


def test_spanning_expression_identity():
    rng = random.Random(1444)
    alg = OqAlgebra(ROOT3)
    allowed = set(spanning_set(3))
    for _ in range(40):
        m = random_pbw_index(rng, 6)
        expr = alg.express_in_spanning(m)
        rhs = alg.zero()
        for w, coeff in expr.coefficients.items():
            assert w in allowed
            assert alg.is_frobenius_element(coeff)
            rhs = rhs + coeff * alg.basis_monomial(w)
        assert rhs == alg.basis_monomial(m)


def test_spanning_expression_pinned_example():
    """a^2 b c = q^2 a^3 d - q^2 a^2 at order 3."""
    alg = OqAlgebra(ROOT3)
    expr = alg.express_in_spanning((2, 0, 1, 1))
    assert sorted(expr.coefficients) == [(0, 1, 0, 0), (2, 0, 0, 0)]
    q2 = ROOT3.q_pow(2)
    assert expr.coefficients[(0, 1, 0, 0)] == alg.frobenius_monomial((1, 0, 0, 0)) * q2
    assert expr.coefficients[(2, 0, 0, 0)] == alg.one() * (-q2)


def test_localized_rejected_in_generic_mode():
    alg = OqAlgebra(GENERIC)
    with pytest.raises(ValueError):
        alg.localized_express((1, 0, 0, 0))
    with pytest.raises(ValueError):
        alg.express_in_spanning((1, 0, 0, 0))


# -- shared tables under threads ------------------------------------------------


def test_diagonal_tables_grow_once_under_threads():
    """Threads racing on a fresh algebra's diagonal tables see every level right."""
    ring = ScalarRing.root_of_unity(7)
    levels = range(15)
    sequential = OqAlgebra(ring)
    want = [
        (sequential.diagonal_expansion(t), sequential.diagonal_expansion(t, True))
        for t in levels
    ]
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(50):
            alg = OqAlgebra(ring)
            barrier = threading.Barrier(workers)
            seen = [None] * workers

            def work(i, alg=alg, barrier=barrier, seen=seen):
                barrier.wait(timeout=30)
                seen[i] = [
                    (alg.diagonal_expansion(t), alg.diagonal_expansion(t, True))
                    for t in levels
                ]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert all(got == want for got in seen)
            assert [
                (alg.diagonal_expansion(t), alg.diagonal_expansion(t, True))
                for t in levels
            ] == want
    finally:
        sys.setswitchinterval(interval)
