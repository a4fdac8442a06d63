"""The quantized SL2 coordinate algebra: rewriting, degrees, certificates."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from qskein import oq_sl2
from qskein.linear import accumulate
from qskein.dimensions import iter_basis_box, iter_spanning_set, iter_spanning_wing
from qskein.oq_sl2 import OqAlgebra, is_pbw_index, leading_index
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
    """The word engine agrees with the structured product of the word's
    generators on every word of up to six letters (5,461 words)."""
    alg = OqAlgebra(GENERIC)
    products = {"": alg.one()}
    for length in range(1, 7):
        for tup in itertools.product("adbc", repeat=length):
            word = "".join(tup)
            products[word] = products[word[:-1]] * alg.generator(word[-1])
    assert len(products) == 5461
    for word, product in products.items():
        assert alg.normal_form(word) == product, word


def test_normal_form_input_forms():
    alg = OqAlgebra(GENERIC)
    x = alg.normal_form("da")
    assert x == alg.normal_form({"da": 1})
    combined = alg.normal_form({"ab": 2, "ba": -1})
    assert combined == alg.normal_form("ab") * 2 - alg.normal_form("ba")
    with pytest.raises(ValueError):
        alg.normal_form("axb")


def pbw_word(k):
    return "a" * k[0] + "d" * k[1] + "b" * k[2] + "c" * k[3]


def test_word_engine_matches_structured_product():
    rng = random.Random(1201)
    for ring in (GENERIC, ROOT3):
        alg = OqAlgebra(ring)
        for _ in range(40):
            u = random_pbw_index(rng, 3)
            v = random_pbw_index(rng, 3)
            assert alg.normal_form(pbw_word(u) + pbw_word(v)) == (
                alg.power_product(u) * alg.power_product(v)
            )
    # every pair of PBW indices with entries <= 2: 45 * 45 = 2,025 pairs,
    # which reach every branch of the a/d merge in both word orders
    small = [k for k in itertools.product(range(3), repeat=4) if is_pbw_index(k)]
    assert len(small) ** 2 == 2025
    for ring in (GENERIC, ScalarRing.root_of_unity(5)):
        alg = OqAlgebra(ring)
        for u in small:
            for v in small:
                assert alg.normal_form(pbw_word(u) + pbw_word(v)) == (
                    alg.basis_monomial(u) * alg.basis_monomial(v)
                ), (u, v)


def _generator_product(alg, word):
    out = alg.one()
    for letter in word:
        out = out * alg.generator(letter)
    return out


def test_word_engine_random_long_words():
    """Words of 10-24 letters: the leftmost-pair rewriting agrees with the
    structured product of the word's generators."""
    rng = random.Random(2411)
    for ring in (GENERIC, ScalarRing.root_of_unity(5)):
        alg = OqAlgebra(ring)
        for _ in range(12):
            word = "".join(rng.choice("adbc") for _ in range(rng.randint(10, 24)))
            assert alg.normal_form(word) == _generator_product(alg, word), word


@pytest.mark.parametrize("word", ["dda", "cbda", "bcdda"])
def test_word_engine_pair_straddling_the_rewrite(word):
    """Rewriting a pair can create a reducible pair that starts one letter
    before it (b + dc in "bcdda", c + bc in "cbda"), which the next scan
    must find; "dda" gives "dbc" and "d", which create none."""
    for ring in (GENERIC, ScalarRing.root_of_unity(5)):
        alg = OqAlgebra(ring)
        assert alg.normal_form(word) == _generator_product(alg, word)


@pytest.mark.parametrize("ring", [GENERIC, ScalarRing.root_of_unity(5)], ids=["generic", "N5"])
def test_word_engine_runs_of_swaps(ring):
    """A swap rule moves a letter past a whole run in one step, with q^(e r);
    the q^0 rule cb moves c past a run of b with the coefficient unchanged."""
    alg = OqAlgebra(ring)
    for word in ["bbbaa", "cccbb", "ccbbbd", "abbbccaa", "dcccbcd", "bcbcbcda"]:
        assert alg.normal_form(word) == _generator_product(alg, word), word
    assert alg.normal_form("bbbaa") == alg.basis_monomial((2, 0, 3, 0)) * ring.q_pow(12)
    assert alg.normal_form("cccbb") == alg.basis_monomial((0, 0, 2, 3))


@pytest.mark.parametrize("pair, wrong, word", [
    ("ba", ("_SWAPS", 4), "bbbaa"),
    ("cb", ("_SWAPS", 2), "ccbb"),
    ("da", ("_DIAGONAL", 0), "da"),
])
def test_word_engine_reads_swap_exponents_from_the_rules(monkeypatch, pair, wrong, word):
    """A wrong exponent in _SWAPS makes the engine disagree with the
    structured product on a word whose swaps move whole runs: the run step
    multiplies by q^(e r) with e read from the table.  A wrong exponent in
    _DIAGONAL (da = bc + 1) makes it disagree on da itself."""
    for ring in (GENERIC, ScalarRing.root_of_unity(5)):
        assert OqAlgebra(ring).normal_form(word) == _generator_product(OqAlgebra(ring), word)
    table, e = wrong
    monkeypatch.setitem(getattr(oq_sl2, table), pair, e)
    for ring in (GENERIC, ScalarRing.root_of_unity(5)):
        alg = OqAlgebra(ring)
        assert alg.normal_form(word) != _generator_product(alg, word)


def test_word_engine_refuses_a_word_the_tables_leave_out_of_order(monkeypatch):
    """Without the rule ba = q^2 ab the word ba is irreducible but not in
    normal order: the engine names it rather than reading it as ab."""
    swaps = {pair: e for pair, e in oq_sl2._SWAPS.items() if pair != "ba"}
    monkeypatch.setattr(oq_sl2, "_SWAPS", swaps)
    monkeypatch.setattr(oq_sl2, "_REDUCIBLE", re.compile("|".join([*swaps, *oq_sl2._DIAGONAL])))
    alg = OqAlgebra(ScalarRing.root_of_unity(5))
    assert alg.normal_form("ab") == alg.basis_monomial((1, 0, 1, 0))
    with pytest.raises(ArithmeticError, match=r"^word 'ba' is irreducible but not in normal order$"):
        alg.normal_form("ba")


@pytest.mark.parametrize(
    "ring", [GENERIC, ROOT3, ScalarRing.root_of_unity(5)], ids=["generic", "N3", "N5"]
)
def test_structured_product_stores_no_zero_coefficient(ring):
    """(a - q^-2 b)(d + c): the bc terms of ad and of -q^-2 bc cancel, so the
    product has exactly three terms, as the word engine finds too.  Random
    products of such sums also agree with the word engine and keep no zero
    coefficient."""
    alg = OqAlgebra(ring)
    a, b, c, d = (alg.generator(x) for x in "abcd")
    q_2 = ring.q_pow(-2)
    product = (a - b * q_2) * (d + c)
    assert set(product.terms) == {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0)}
    assert all(product.terms.values())
    assert product == alg.normal_form({"ad": 1, "ac": 1, "bd": -q_2, "bc": -q_2})
    rng = random.Random(3031)
    for _ in range(40):
        x = {random_pbw_index(rng, 2): ring.q_pow(rng.randrange(-3, 4)) * rng.choice([1, -1])
             for _ in range(rng.randint(1, 3))}
        y = {random_pbw_index(rng, 2): ring.q_pow(rng.randrange(-3, 4)) * rng.choice([1, -1])
             for _ in range(rng.randint(1, 3))}
        product = alg.element(x) * alg.element(y)
        assert all(product.terms.values())
        words = {}
        for u, cu in x.items():
            for v, cv in y.items():
                accumulate(words, pbw_word(u) + pbw_word(v), cu * cv)
        assert product == alg.normal_form(words)


def test_core_memo_is_never_mutated():
    """Products read the shared a/d cores; none of them writes into one."""
    ring = ScalarRing.root_of_unity(5)
    alg = OqAlgebra(ring)
    indices = list(itertools.product(range(4), repeat=4))
    before = {k: alg.power_product(k) for k in indices}
    rng = random.Random(5)
    for _ in range(60):
        x = alg.power_product(rng.choice(indices)) * Fraction(rng.randint(1, 4))
        y = alg.power_product(rng.choice(indices)) + alg.one()
        x * y
        y * x
        alg.normal_form(pbw_word(rng.choice(indices)) + pbw_word(rng.choice(indices)))
    fresh = OqAlgebra(ring)
    for k in indices:
        assert alg.power_product(k) == before[k] == fresh.power_product(k), k


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
        assert alg.power_product(k) == alg.normal_form(pbw_word(k))
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
    box = list(iter_basis_box(order))
    wing = list(iter_spanning_wing(order))
    assert len(box) == order ** 3
    assert len(set(box)) == len(box)
    assert set(box).isdisjoint(wing)
    full = list(iter_spanning_set(order))
    assert set(full) == set(box) | set(wing)
    assert len(full) == 2 * order ** 3 - order * (order + 1) * (2 * order + 1) // 6


def test_box_and_wing_membership_shape():
    order = 5
    for k in iter_basis_box(order):
        assert k[0] == 0
        assert all(0 <= e < order for e in k)
    for k in iter_spanning_wing(order):
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


@pytest.mark.parametrize("k", [(1.0, 2.0, 0, 0), (True, True, 0, 0), (0, 0, "1", 0)],
                         ids=["float", "bool", "string"])
def test_leading_index_follows_the_integer_rule(k):
    """Floats are not read as (0.0, 1.0, 1.0, 1.0), nor bools as (0, 0, 1, 1)."""
    with pytest.raises(TypeError, match="expected an integer, got"):
        leading_index(k)


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
        assert alg.normal_form(pbw_word(k)).deg() == leading_index(k)


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
        for v in iter_basis_box(order):
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


def _scalar_diag_rows(ring, top, forward):
    """Rows 0..top of a^t d^t (forward) or d^t a^t by the recurrence on
    scalars: row t+1 gets q^-+(4g+2) times entry g at g + 1, and q^-+(4g)
    times it at g."""
    sign = -1 if forward else 1
    rows = [{0: ring.one}]
    while len(rows) <= top:
        nxt = {}
        for g, coeff in rows[-1].items():
            accumulate(nxt, g + 1, coeff * ring.q_pow(sign * (4 * g + 2)))
            accumulate(nxt, g, coeff * ring.q_pow(sign * 4 * g))
        rows.append(nxt)
    return rows


def _diagonal_row(alg, t, forward):
    """{g: coefficient of (bc)^g} of a^t d^t (forward) or d^t a^t, read
    through the product, whose keys are all (0, 0, g, g)."""
    a, d = alg.basis_monomial((t, 0, 0, 0)), alg.basis_monomial((0, t, 0, 0))
    product = a * d if forward else d * a
    assert all(k == (0, 0, k[2], k[2]) for k in product.terms), product
    return {k[2]: s for k, s in product.terms.items()}


@pytest.mark.parametrize(
    "ring",
    [ScalarRing.root_of_unity(n) for n in (3, 5, 7, 21)] + [GENERIC],
    ids=["N3", "N5", "N7", "N21", "generic"],
)
def test_diagonal_rows_match_the_scalar_recurrence(ring):
    """Rows t <= 2N + 1 (t <= 11 in the generic ring), requested in random
    order in both directions, equal the scalar recurrence's rows, vanishing
    entries dropped.  The top entry and every entry that is some zeta^m are
    tagged."""
    top = 2 * (ring.order or 5) + 1
    want = {forward: _scalar_diag_rows(ring, top, forward) for forward in (True, False)}
    requests = [(t, forward) for t in range(top + 1) for forward in (True, False)]
    random.Random(top).shuffle(requests)
    alg = OqAlgebra(ring)
    for t, forward in requests:
        row = _diagonal_row(alg, t, forward)
        assert row == want[forward][t], (t, forward)
        assert all(row.values())
        if ring.order is not None:
            # the top entry, a single root power, is the one _wing_reduce inverts
            assert t not in row or row[t]._base is None
            for s in row.values():
                assert s._base is None or ring.root_exponent(s) is None, (t, forward, s)
        kept = {(0, 0, g): s for g, s in row.items()}
        assert alg._core(forward, t, t) is alg._core(forward, t, t) == kept


def _raw_diag_counts(n, top):
    """Rows 0..top of the count recurrence modulo x^n = 1, never levelled:
    C(t+1, g) = x^(4g) C(t, g) + x^(4g-2) C(t, g-1)."""
    rows = [[[1] + [0] * (n - 1)]]
    while len(rows) <= top:
        prev = rows[-1]
        nxt = []
        for g in range(len(prev) + 1):
            c = [0] * n
            if g < len(prev):
                for i, u in enumerate(prev[g]):
                    c[(i + 4 * g) % n] += u
            if g:
                for i, u in enumerate(prev[g - 1]):
                    c[(i + 4 * g - 2) % n] += u
            nxt.append(c)
        rows.append(nxt)
    return rows


@pytest.mark.parametrize("order", [5, 7])
def test_levelled_diagonal_counts_convert_like_the_raw_ones(order):
    """The kept count lists have minimum 0, and every row t <= 2N converts
    to the same scalars as the raw counts, in both directions."""
    ring = ScalarRing.root_of_unity(order)
    top = 2 * order
    raw = _raw_diag_counts(order, top)
    alg = OqAlgebra(ring)
    for forward in (True, False):
        step = -2 if forward else 2
        for t in range(top + 1):
            want = {g: ring.from_power_counts(c, step) for g, c in enumerate(raw[t])}
            got = _diagonal_row(alg, t, forward)
            assert got == {g: s for g, s in want.items() if s}, (t, forward)
    kept = alg._diag_counts
    assert len(kept) == top + 1
    for t, (levelled, counts) in enumerate(zip(kept, raw)):
        for g, (c, r) in enumerate(zip(levelled, counts)):
            assert min(c) == 0 and all(0 <= u <= v for u, v in zip(c, r)), (t, g)
            assert len({v - u for u, v in zip(c, r)}) == 1, (t, g)
    # the raw counts of the top row reach 2^(2N) / N; the levelled ones stay lower
    assert max(map(max, kept[top])) < max(map(max, raw[top]))


def test_diagonal_row_collapses_at_the_order():
    """At N = 5, a^5 d^5 = d^5 a^5 = 1 + (bc)^5: the middle entries vanish."""
    ring = ScalarRing.root_of_unity(5)
    alg = OqAlgebra(ring)
    for forward in (True, False):
        row = _diagonal_row(alg, 5, forward)
        assert row == {0: ring.one, 5: ring.one}
        assert all(s._base is None for s in row.values())


def test_one_core_per_word():
    """The table keeps one entry per word x^m y^n, however the product
    reaches it: a^2 (a d^3) and a^3 d^3 share the entry of a^3 d^3, and
    a^2 a, a a^2 and a^3 1 share that of a^3."""
    ring = ScalarRing.root_of_unity(5)
    alg = OqAlgebra(ring)
    one = ring.one
    a3d3 = alg._mul_into({}, {(2, 0, 0, 0): one}, {(1, 3, 0, 0): one})
    assert alg._mul_into({}, {(3, 0, 0, 0): one}, {(0, 3, 0, 0): one}) == a3d3
    assert alg.element(a3d3) == alg.normal_form("aaaddd")
    assert list(alg._cores) == [(True, 3, 3)]
    a = [alg.basis_monomial((i, 0, 0, 0)) for i in range(4)]
    assert a[2] * a[1] == a[1] * a[2] == a[3] * a[0] == a[3]
    assert a[0] * a[0] == alg.one()
    words = {(True, 3, 3), (True, 3, 0), (True, 0, 0)}  # a^3 d^3, a^3 and 1
    assert set(alg._cores) == words and len(alg._cores) == len(words)
    # d^2 a^4 reads the row d^2 a^2, which no product has asked for: both are kept
    alg.basis_monomial((0, 2, 0, 0)) * alg.basis_monomial((4, 0, 0, 0))
    assert set(alg._cores) == words | {(False, 2, 4), (False, 2, 2)}


def test_diagonal_power_membership():
    for ring in (ScalarRing.root_of_unity(5), GENERIC):
        alg = OqAlgebra(ring)
        for t in range(11):
            x = alg.power_product((t, 0, 0, 0)) * alg.power_product((0, t, 0, 0))
            assert alg.in_diagonal_tower(x, t)
            assert x == alg.power_product((t, t, 0, 0))


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
    """A top coefficient of minus a power of q is not a power of q."""
    alg = OqAlgebra(ROOT3)
    bc = alg.basis_monomial((0, 0, 1, 1))
    assert alg.in_diagonal_tower(alg.one() + bc * ROOT3.q_pow(2), 1)
    assert not alg.in_diagonal_tower(alg.one() - bc * ROOT3.q_pow(2), 1)


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
    lhs = alg.power_product((3, 3, 0, 0))
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
    box = list(iter_basis_box(3))
    for _ in range(50):
        keys = rng.sample(box, rng.randint(1, 5))
        cmap = {k: random_frobenius_coeff(alg, rng) for k in keys}
        cert = alg.independence_certificate(cmap)
        assert cert.certified
        assert cert.indices_distinct
        assert cert.combination_nonzero
        assert len(set(cert.lifted_indices)) == len(cert.lifted_indices)


def random_scalar(ring, rng):
    """A rational multiple of a root power, half the time plus a second root
    power: a dense scalar, whose numerators are built."""
    s = ring.zeta_pow(rng.randrange(7)) * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
    if rng.random() < 0.5:
        s = s + ring.zeta_pow(rng.randrange(7)) * rng.randint(1, 3)
    return s


@pytest.mark.parametrize(
    "ring",
    [ScalarRing.root_of_unity(n) for n in (3, 5, 7)] + [GENERIC],
    ids=["N3", "N5", "N7", "generic"],
)
def test_combine_matches_the_generic_product(ring):
    """The expansion behind the certificates and the re-expansions agrees,
    term by term, with the sum of generic products coeff * O_v over the box
    and the wing.  Coefficients are arbitrary elements, so the q-twist is
    not always trivial, and their cores have several terms."""
    rng = random.Random(7019)
    alg = OqAlgebra(ring)
    order = ring.order or 5
    keys = list(iter_spanning_set(order))
    for _ in range(40):
        cmap = {}
        for v in rng.sample(keys, rng.randint(1, 4)):
            terms = {random_pbw_index(rng, 2 * order): random_scalar(ring, rng)
                     for _ in range(rng.randint(1, 4))}
            cmap[v] = alg.element(terms)
        want = alg.zero()
        for v, coeff in cmap.items():
            want = want + coeff * alg.basis_monomial(v)
        assert alg._combine(cmap).terms == want.terms


def test_combine_drops_cancelled_terms():
    alg = OqAlgebra(ROOT3)
    b = alg.generator("b")
    cmap = {(0, 0, 0, 0): b, (0, 0, 1, 0): alg.one() * -1}
    assert alg._combine(cmap).is_zero()
    cmap[(0, 0, 0, 1)] = b * 2
    assert alg._combine(cmap) == alg.basis_monomial((0, 0, 1, 1)) * 2


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
            assert v in set(iter_basis_box(3))
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
    allowed = set(iter_spanning_set(3))
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


@pytest.mark.parametrize("method", ["localized_express", "express_in_spanning"])
def test_failed_re_expansion_names_the_index(monkeypatch, method):
    real = OqAlgebra._combine
    monkeypatch.setattr(
        OqAlgebra, "_combine", lambda self, coeffs: real(self, coeffs) + self.one()
    )
    alg = OqAlgebra(ROOT3)
    with pytest.raises(ArithmeticError, match=re.escape("re-expansion at (4, 0, 1, 2)")):
        getattr(alg, method)((4, 0, 1, 2))


def test_false_degree_formula_names_the_input(monkeypatch):
    monkeypatch.setattr(OqAlgebra, "power_product", lambda self, k: self.one())
    alg = OqAlgebra(ROOT3)
    with pytest.raises(ArithmeticError, match=re.escape("at (1, 2, 0, 3)")):
        alg.monomial_degree((1, 2, 0, 3))



@pytest.mark.parametrize(
    "call",
    [
        lambda alg: alg.element({(1, 1, 0, 0): 1}),
        lambda alg: alg.basis_monomial((1, 1, 0, 0)),
        lambda alg: alg.lifted_leading_index((1, 1, 0, 0), (0, 0, 0, 0)),
        lambda alg: alg.frobenius_monomial((1, 1, 0, 0)),
        lambda alg: alg.localized_express((1, 1, 0, 0)),
        lambda alg: alg.express_in_spanning((1, 1, 0, 0)),
    ],
    ids=["element", "basis_monomial", "lifted_leading_index", "frobenius_monomial",
         "localized_express", "express_in_spanning"],
)
def test_methods_taking_a_pbw_index_refuse_others_alike(call):
    alg = OqAlgebra(ScalarRing.root_of_unity(3))
    with pytest.raises(ValueError, match=r"^\(1, 1, 0, 0\) is not a PBW index$"):
        call(alg)


FOREIGN = ScalarRing.root_of_unity(5).zeta_pow(1)
BAD_COEFFICIENTS = pytest.mark.parametrize(
    "value, error",
    [(0.1, TypeError), ("1", TypeError), (True, TypeError), (FOREIGN, ValueError)],
    ids=["float", "string", "bool", "foreign-ring"],
)


def _refused(value, error):
    """pytest.raises for a refused coefficient: coerce's own message for a
    scalar of another ring."""
    return pytest.raises(error, match="different rings" if error is ValueError else "expected")


@BAD_COEFFICIENTS
def test_element_refuses_coefficients(value, error):
    with _refused(value, error):
        OqAlgebra(ROOT3).element({(0, 0, 0, 0): value})


@BAD_COEFFICIENTS
def test_normal_form_refuses_coefficients(value, error):
    with _refused(value, error):
        OqAlgebra(ROOT3).normal_form({"ab": value})


def test_normal_form_refuses_a_pair_list():
    with pytest.raises(TypeError, match="mapping"):
        OqAlgebra(ROOT3).normal_form([(1, "ab")])


@pytest.mark.parametrize("ring", [GENERIC, ScalarRing.root_of_unity(5)], ids=["generic", "N5"])
def test_normal_form_of_a_cancelling_mapping_is_zero(ring):
    """ba = q^2 ab, so the rewrites of {ba: 1, ab: -q^2} cancel; a zero
    coefficient adds nothing to the agenda."""
    alg = OqAlgebra(ring)
    assert alg.normal_form({"ba": 1, "ab": -ring.q_pow(2)}).terms == {}
    assert alg.normal_form({"ab": 0}).terms == {}


@pytest.mark.parametrize("t", [True, 1.0], ids=["bool", "float"])
def test_tower_height_follows_the_integer_rule(t):
    alg = OqAlgebra(ROOT3)
    x = alg.power_product((1, 0, 0, 0)) * alg.power_product((0, 1, 0, 0))
    assert alg.in_diagonal_tower(x, 1)
    with pytest.raises(TypeError, match="expected an integer, got"):
        alg.in_diagonal_tower(x, t)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_element_power_follows_the_integer_rule(n):
    """a ** True is not a: the exponent is read by ``linear.integer``."""
    a = OqAlgebra(ScalarRing.root_of_unity(5)).generator("a")
    assert a ** 2 == a * a
    with pytest.raises(TypeError, match="expected an integer, got"):
        a ** n


def test_element_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        OqAlgebra(ROOT3).generator("a") ** -1


@pytest.mark.parametrize("value", [2.0, "2", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("method", ["power_product", "monomial_degree"])
def test_exponent_vectors_refuse_non_integers(method, value):
    with pytest.raises(TypeError, match="expected an integer"):
        getattr(OqAlgebra(ROOT3), method)((value, 0, 1, 0))


def test_bool_exponents_are_not_pbw_indices():
    assert not is_pbw_index((True, 0, 0, 0))
    with pytest.raises(ValueError, match="not a PBW index"):
        OqAlgebra(ROOT3).basis_monomial((True, 0, 0, 0))
    with pytest.raises(ValueError, match="not a PBW index"):
        OqAlgebra(ROOT3).element({(0, 0, False, 0): 1})


@pytest.mark.parametrize("name", ["generator", "frobenius_generator"])
@pytest.mark.parametrize("letter", ["e", "ab", ""])
def test_unknown_generator_letters_refused_alike(name, letter):
    alg = OqAlgebra(ScalarRing.root_of_unity(3))
    with pytest.raises(ValueError, match=f"unknown generator {letter!r}"):
        getattr(alg, name)(letter)


def test_frobenius_generator_is_the_nth_power():
    alg = OqAlgebra(ScalarRing.root_of_unity(3))
    for letter in "abcd":
        assert alg.frobenius_generator(letter) == alg.generator(letter) ** 3


def test_elements_of_two_algebras_do_not_mix():
    """Algebras over equal rings mix; over rings of different order they do not."""
    a5 = OqAlgebra(ScalarRing.root_of_unity(5)).generator("a")
    assert a5 + OqAlgebra(ScalarRing.root_of_unity(5)).generator("a") == a5 * 2
    a7 = OqAlgebra(ScalarRing.root_of_unity(7)).generator("a")
    for combine in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(ValueError, match=r"^elements from different algebras$"):
            combine(a5, a7)
