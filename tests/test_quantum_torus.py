"""Triangulation quantum tori: exchange data, Weyl monomials, balance, grading."""

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qskein import quantum_torus
from qskein.chebyshev import Polynomial
from qskein.oq_sl2 import OqAlgebra
from qskein.quantum_torus import (
    QuantumTorus,
    Triangulation,
    ZBasis,
    balanced_check,
    balanced_lattice_basis,
    balanced_puncture_basis,
    center_free_certificate,
    central_puncture_element,
    central_puncture_exponent,
    exchange_matrix,
    four_punctured_sphere,
    frobenius_map,
    is_central,
    once_punctured_torus,
    qt_deg,
)
from qskein.scalars import ScalarRing

RING = ScalarRing.root_of_unity(3)


def random_balanced(torus, tri, lattice, rng, cap=2, terms=2):
    out = torus.zero()
    n = tri.edge_count
    for _ in range(rng.randint(1, terms)):
        coords = [rng.randint(-cap, cap) for _ in range(n)]
        vec = [0] * n
        for c, bv in zip(coords, lattice):
            for j in range(n):
                vec[j] += c * bv[j]
        out = out + torus.ordered_monomial(tuple(vec), Fraction(rng.randint(1, 4)))
    return out if not out.is_zero() else torus.one()


# -- triangulations --------------------------------------------------------------


def test_once_punctured_torus_fixture():
    tri = once_punctured_torus()
    assert tri.edge_count == 3
    tri.check_euler_count(genus=1, punctures=1)
    assert exchange_matrix(tri) == ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


def test_four_punctured_sphere_fixture():
    tri = four_punctured_sphere()
    assert tri.edge_count == 6
    tri.check_euler_count(genus=0, punctures=4)
    sigma = exchange_matrix(tri)
    for i in range(6):
        for j in range(6):
            assert sigma[i][j] == -sigma[j][i]
            assert -2 <= sigma[i][j] <= 2


def test_triangulation_json_round_trip():
    tri = four_punctured_sphere()
    again = Triangulation.from_json(tri.to_json())
    assert again == tri
    data = json.loads(tri.to_json())
    assert data["edges"] == 6
    assert set(data["fans"]) == {"v0", "v1", "v2", "v3"}


def test_triangulation_json_repeated_fan_key_refused():
    """A puncture named twice keeps both fans, and the constructor refuses the
    second by name; json.loads alone would keep the last and lose a fan."""
    text = four_punctured_sphere().to_json().replace('"v1"', '"v0"')
    assert text.count('"v0"') == 2
    with pytest.raises(ValueError, match=r"^puncture 'v0' has two fans$"):
        Triangulation.from_json(text)


def test_triangulation_json_repeated_top_level_key_refused():
    """json.loads alone would keep the last value: 6 edges, not 99."""
    text = four_punctured_sphere().to_json().replace('"edges": 6', '"edges": 99, "edges": 6')
    assert text.count('"edges"') == 2
    message = r"^malformed triangulation data: key 'edges' appears twice$"
    with pytest.raises(ValueError, match=message):
        Triangulation.from_json(text)


@pytest.mark.parametrize(
    "extra, key",
    [(', "extra": 1', "extra"), (', "fan": {"v0": [0, 1, 2, 0, 1, 2]}', "fan")],
    ids=["extra", "misspelt-fans"],
)
def test_triangulation_json_unknown_top_level_key_refused(extra, key):
    """A key beside edges, triangles and fans is refused by name, not dropped."""
    text = once_punctured_torus().to_json()[:-1] + extra + "}"
    message = rf"^malformed triangulation data: unknown key '{key}'$"
    with pytest.raises(ValueError, match=message):
        Triangulation.from_json(text)


def test_triangulation_json_repeated_key_refused_before_an_unknown_one():
    text = once_punctured_torus().to_json().replace('"edges": 3', '"fan": 1, "edges": 3, "edges": 3')
    with pytest.raises(ValueError, match="key 'edges' appears twice"):
        Triangulation.from_json(text)


def test_triangulation_validation():
    with pytest.raises(ValueError):
        # an edge with only one end in the fans
        Triangulation(2, ((0, 1, 1),), (("v", (0, 1)),))
    with pytest.raises(ValueError):
        # unknown edge index in a triangle
        Triangulation(2, ((0, 1, 5),), (("v", (0, 0, 1, 1)),))
    with pytest.raises(ValueError):
        Triangulation.from_dict({"edges": 3, "triangles": []})
    torus = once_punctured_torus().to_dict()
    for bad in (
        {"edges": 10**12},  # totals disagree; refused before allocating
        {"fans": {"v0": [0, 1, 2, 0, 1, 2], "v1": []}},
        {"edges": 3.7},
        {"edges": True},
        {"triangles": [[0, 1, 2.0], [0, 1, 2]]},
        {"fans": {"v0": [0, 1, 2, 0, 1, False]}},
    ):
        with pytest.raises(ValueError):
            Triangulation.from_dict({**torus, **bad})
    tri = once_punctured_torus()
    with pytest.raises(ValueError):
        tri.check_euler_count(genus=2, punctures=1)


def test_euler_count_names_both_puncture_counts():
    # 6g + 3p - 6 = 6 edges either way, so only the puncture count differs
    with pytest.raises(ValueError, match=r"^puncture count 4 != 2$"):
        four_punctured_sphere().check_euler_count(genus=1, punctures=2)


@pytest.mark.parametrize(
    "triangles, fan, message",
    [
        # each passes the totals check: a 6-entry fan and two triangles on 3 edges
        (((0, 1, 2), (0, 1, 2)), (0, 1, 2, 0, 1, 5), "fan of 'v' uses unknown edge 5"),
        (((0, 1, 2), (0, 1, 2)), (0, 0, 0, 1, 1, 2), "exactly two ends in the fans"),
        (((0, 1), (0, 1, 2, 2)), (0, 1, 2, 0, 1, 2), "triangles must be edge triples"),
        (((0, 1, 2), (0, 1, 7)), (0, 1, 2, 0, 1, 2), "triangle uses unknown edge 7"),
        (((0, 1, 2), (0, 1, 1)), (0, 1, 2, 0, 1, 2), "exactly two triangle slots"),
    ],
)
def test_triangulation_refuses_each_bad_edge(triangles, fan, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Triangulation(3, triangles, (("v", fan),))


def test_triangulation_refuses_a_repeated_fan_name():
    sphere = four_punctured_sphere()
    fans = tuple(zip(("v0", "v0", "v2", "v3"), (fan for _, fan in sphere.fans)))
    with pytest.raises(ValueError, match="puncture 'v0' has two fans"):
        Triangulation(sphere.edge_count, sphere.triangles, fans)


def test_fan_lookup():
    tri = four_punctured_sphere()
    assert tri.fan("v1") == (0, 4, 3)
    with pytest.raises(KeyError):
        tri.fan("nope")


# -- balance and lattices --------------------------------------------------------


def test_balanced_check_basics():
    tri = once_punctured_torus()
    assert balanced_check(tri, (2, 0, 0))
    assert balanced_check(tri, (1, 1, 0))
    assert not balanced_check(tri, (1, 0, 0))
    assert balanced_check(tri, (-1, 1, 0))
    with pytest.raises(ValueError):
        balanced_check(tri, (1, 0))


@pytest.mark.parametrize("k", [(1.0, 1.0, 0.0), (True, True, False), (2, 0, "0")],
                         ids=["float", "bool", "string"])
def test_balanced_check_follows_the_integer_rule(k):
    """(1.0, 1.0, 0.0) and (True, True, False) are not read as balanced vectors."""
    with pytest.raises(TypeError, match="expected an integer, got"):
        balanced_check(once_punctured_torus(), k)


def test_balanced_vectors_closed_under_addition():
    rng = random.Random(12)
    tri = four_punctured_sphere()
    lattice = balanced_lattice_basis(tri)
    n = tri.edge_count
    for _ in range(40):
        def sample():
            vec = [0] * n
            for c, bv in zip([rng.randint(-3, 3) for _ in range(n)], lattice):
                for j in range(n):
                    vec[j] += c * bv[j]
            return vec
        x, y = sample(), sample()
        assert balanced_check(tri, x)
        assert balanced_check(tri, [a + b for a, b in zip(x, y)])
        assert balanced_check(tri, [-a for a in x])


def test_balanced_lattice_contains_doubles_and_puncture_vectors():
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        basis = balanced_lattice_basis(tri)
        assert len(basis) == tri.edge_count
        for v in basis:
            assert balanced_check(tri, v)
        for name in tri.punctures:
            assert balanced_check(tri, central_puncture_exponent(tri, name))


def _readme_triangulation():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("### Triangulation files"):]
    return Triangulation.from_json(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def _glued_triangulation(triangle_count, rng):
    """Glue triangles along a random pairing of their sides (t, s).

    Corner (t, s) lies between sides s - 1 and s; crossing side (t, s),
    glued to (t', s'), leads to corner (t', s' + 1).  A fan lists the edges
    crossed while walking around one puncture.
    """
    sides = [(t, s) for t in range(triangle_count) for s in range(3)]
    rng.shuffle(sides)
    edge_of, partner = {}, {}
    for e in range(len(sides) // 2):
        x, y = sides[2 * e], sides[2 * e + 1]
        edge_of[x] = edge_of[y] = e
        partner[x], partner[y] = y, x
    fans, seen = {}, set()
    for corner in sorted(edge_of):
        fan = []
        while corner not in seen:
            seen.add(corner)
            fan.append(edge_of[corner])
            t, s = partner[corner]
            corner = (t, (s + 1) % 3)
        if fan:
            fans[f"v{len(fans)}"] = fan
    data = {
        "edges": len(sides) // 2,
        "triangles": [[edge_of[(t, s)] for s in range(3)] for t in range(triangle_count)],
        "fans": fans,
    }
    return Triangulation.from_json(json.dumps(data))


def _assert_hermite(basis):
    """Upper triangular rows, diagonal 1 or 2, entries above it in [0, it)."""
    n = len(basis)
    for c, row in enumerate(basis):
        assert len(row) == n
        assert not any(row[:c])
        assert row[c] in (1, 2)
        assert all(0 <= basis[r][c] < row[c] for r in range(c))


def _solves_by_substitution(basis, k):
    """Whether k is an integer combination of the upper triangular basis."""
    rest = list(k)
    for c, row in enumerate(basis):
        q, r = divmod(rest[c], row[c])
        if r:
            return False
        rest = [a - q * b for a, b in zip(rest, row)]
    return not any(rest)


@pytest.mark.parametrize(
    "tri",
    [once_punctured_torus(), four_punctured_sphere(), _readme_triangulation()],
    ids=["once-punctured-torus", "four-punctured-sphere", "readme"],
)
def test_balanced_lattice_basis_spans_exactly_the_balanced_vectors(tri):
    basis = balanced_lattice_basis(tri)
    assert len(basis) == tri.edge_count
    _assert_hermite(basis)
    assert all(balanced_check(tri, v) for v in basis)
    # L contains 2Z^n, so its parity vectors decide membership and its index
    balanced = 0
    for k in itertools.product((0, 1), repeat=tri.edge_count):
        is_balanced = balanced_check(tri, k)
        assert is_balanced == _solves_by_substitution(basis, k)
        balanced += is_balanced
    index = math.prod(row[c] for c, row in enumerate(basis))
    assert index * balanced == 2 ** tri.edge_count


def test_balanced_lattice_basis_of_a_large_glued_triangulation():
    tri = _glued_triangulation(100, random.Random(9))
    assert tri.edge_count == 150
    start = time.perf_counter()
    basis = balanced_lattice_basis(tri)
    elapsed = time.perf_counter() - start
    assert len(basis) == 150
    _assert_hermite(basis)
    assert all(balanced_check(tri, v) for v in basis)
    assert elapsed < 1


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda h: tuple(2 * e for e in h), "completion failure: puncture 'v0'"),
        (lambda h: (h[0] + 1,) + h[1:], "puncture 'v0' is not in the lattice"),
    ],
    ids=["doubled", "plus-e0"],
)
@pytest.mark.parametrize("tri", [once_punctured_torus(), four_punctured_sphere()])
def test_puncture_basis_refuses_bad_puncture_vectors(monkeypatch, tri, change, message):
    exponent = quantum_torus.central_puncture_exponent
    monkeypatch.setattr(
        quantum_torus, "central_puncture_exponent", lambda t, name: change(exponent(t, name))
    )
    with pytest.raises(ValueError, match=message):
        balanced_puncture_basis(tri)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda h, v0: v0, "puncture 'v1' is dependent on the ones before it"),
        (lambda h, v0: tuple(2 * e for e in h), r"puncture 'v1' is not primitive \(pivot 2\)"),
    ],
    ids=["same-as-v0", "doubled"],
)
def test_puncture_basis_names_a_later_bad_puncture(monkeypatch, change, message):
    tri = four_punctured_sphere()
    exponent = quantum_torus.central_puncture_exponent
    v0 = exponent(tri, "v0")
    monkeypatch.setattr(
        quantum_torus,
        "central_puncture_exponent",
        lambda t, name: change(exponent(t, name), v0) if name == "v1" else exponent(t, name),
    )
    with pytest.raises(ValueError, match=message):
        balanced_puncture_basis(tri)


def test_puncture_exponent_counts_fan_ends():
    tri = once_punctured_torus()
    assert central_puncture_exponent(tri, "v0") == (2, 2, 2)
    t4 = four_punctured_sphere()
    assert central_puncture_exponent(t4, "v0") == (1, 1, 1, 0, 0, 0)
    assert central_puncture_exponent(t4, "v3") == (0, 0, 1, 0, 1, 1)


# -- the torus itself -------------------------------------------------------------


def test_generator_commutation_rule():
    tri = once_punctured_torus()
    torus = QuantumTorus.from_triangulation(RING, tri)
    sigma = torus.sigma
    for i in range(3):
        for j in range(3):
            yi, yj = torus.generator(i), torus.generator(j)
            assert yi * yj == yj * yi * torus.parameter ** (2 * sigma[i][j])


def test_tori_built_alike_hash_equal_and_elements_print():
    ring = ScalarRing.root_of_unity(5)
    torus = QuantumTorus.from_triangulation(ring, once_punctured_torus())
    twin = QuantumTorus.from_triangulation(ring, once_punctured_torus())
    assert torus == twin and hash(torus) == hash(twin)
    x = torus.generator(0) * torus.generator(1) + 3
    assert repr(x) == "(1)*Y(1, 1, 0) + (3)*Y(0, 0, 0)"


def _weyl_bracket(torus, word):
    """parameter^(-sum_{a<b} sigma_(w_a w_b)) Y_(w_1) ... Y_(w_m), by generator products."""
    product = torus.one()
    for i in word:
        product = product * torus.generator(i)
    shift = sum(
        torus.sigma[word[a]][word[b]]
        for a in range(len(word))
        for b in range(a + 1, len(word))
    )
    return product * torus.parameter ** (-shift)


def test_weyl_monomial_is_the_bracket_of_any_word_with_its_counts():
    rng = random.Random(23)
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        torus = QuantumTorus.from_triangulation(RING, tri)
        n = tri.edge_count
        for name in tri.punctures:
            fan = tri.fan(name)
            bracket = _weyl_bracket(torus, fan)
            assert bracket == torus.weyl_monomial([fan.count(i) for i in range(n)])
            assert central_puncture_element(torus, name) == bracket
        for _ in range(30):
            word = [rng.randrange(n) for _ in range(rng.randint(0, 7))]
            counts = [word.count(i) for i in range(n)]
            assert _weyl_bracket(torus, word) == torus.weyl_monomial(counts)


def test_weyl_product_rule():
    rng = random.Random(41)
    tri = four_punctured_sphere()
    torus = QuantumTorus.from_triangulation(RING, tri)
    for _ in range(40):
        k = tuple(rng.randint(-3, 3) for _ in range(6))
        l = tuple(rng.randint(-3, 3) for _ in range(6))
        lhs = torus.weyl_monomial(k) * torus.weyl_monomial(l)
        rhs = torus.weyl_monomial(tuple(a + b for a, b in zip(k, l)))
        pairing = sum(
            k[i] * torus.sigma[i][j] * l[j] for i in range(6) for j in range(6)
        )
        rhs = rhs * torus.parameter ** pairing
        assert lhs == rhs


def _double_sum_product(x, y):
    """x * y term by term: Y^k Y^l = parameter^(2 sum_{i>j} sigma_ij k_i l_j) Y^(k+l)."""
    torus = x.torus
    sigma, n = torus.sigma, torus.rank
    out = {}
    for k, ck in x.terms.items():
        for l, cl in y.terms.items():
            low = sum(sigma[i][j] * k[i] * l[j] for i in range(n) for j in range(i))
            key = tuple(a + b for a, b in zip(k, l))
            out[key] = out.get(key, torus.ring.zero) + ck * cl * torus.parameter ** (2 * low)
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize(
    "ring, exponent",
    [(ScalarRing.root_of_unity(5), 1), (ScalarRing.root_of_unity(5), 3),
     (ScalarRing.generic(), 1), (ScalarRing.generic(), -2)],
    ids=["N5", "N5-zeta3", "generic", "generic-v-2"],
)
def test_product_is_the_double_sum_twist(ring, exponent):
    """Products of multi-term elements with tagged, dense and rational
    coefficients, some keys colliding, equal the full double sum."""
    rng = random.Random(exponent)
    z = ring.zeta_pow
    coefficients = [ring.one, z(1) * 3, z(2) * Fraction(-2, 7), z(0) + z(1) * Fraction(2, 3),
                    z(3) - 5, -ring.one]
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        torus = QuantumTorus.from_triangulation(ring, tri, z(exponent))
        n = tri.edge_count
        for _ in range(25):
            x, y = (
                torus.zero().add_all(
                    torus.ordered_monomial(
                        [rng.randint(-2, 2) for _ in range(n)], rng.choice(coefficients)
                    )
                    for _ in range(rng.randint(1, 5))
                )
                for _ in range(2)
            )
            assert (x * y).terms == _double_sum_product(x, y)
            assert (y * x).terms == _double_sum_product(y, x)
        # Y^a Y^b and Y^b Y^a land on one key; the coefficients below cancel there
        a, b = (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)
        x = torus.ordered_monomial(a) + torus.ordered_monomial(b)
        c = -(torus.parameter ** (2 * (torus._low(a, b) - torus._low(b, a))))
        y = torus.ordered_monomial(b) + torus.ordered_monomial(a, c)
        product = (x * y).terms
        assert product == _double_sum_product(x, y)
        assert len(product) == 2 and (1, 1) + (0,) * (n - 2) not in product


def test_weyl_inverse_pairs():
    tri = once_punctured_torus()
    torus = QuantumTorus.from_triangulation(RING, tri)
    for k in [(1, 0, 0), (2, -1, 1), (0, 3, -2)]:
        kk = torus.weyl_monomial(k)
        inv = torus.weyl_monomial(tuple(-e for e in k))
        assert kk * inv == torus.one()


def test_puncture_monomials_central():
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        torus = QuantumTorus.from_triangulation(RING, tri)
        for name in tri.punctures:
            h = central_puncture_element(torus, name)
            assert is_central(torus, h)


def test_a_generator_is_not_central():
    torus = QuantumTorus.from_triangulation(RING, four_punctured_sphere())
    assert not is_central(torus, torus.generator(0))


def test_ordered_monomial_with_coefficient_zero_is_zero():
    torus = QuantumTorus.from_triangulation(RING, four_punctured_sphere())
    assert torus.ordered_monomial((1, 0, 2, 0, 0, 1), 0) == torus.zero()


def test_exchange_matrix_must_be_antisymmetric():
    with pytest.raises(ValueError):
        QuantumTorus(RING, ((0, 1), (1, 0)))


# -- the exponent-multiplying embedding -------------------------------------------


def _tori_pair(tri, order=3):
    mu = RING.zeta_pow(1)
    nu = mu ** (order * order)
    target = QuantumTorus.from_triangulation(RING, tri, mu)
    source = QuantumTorus.from_triangulation(RING, tri, nu)
    return source, target


def test_frobenius_multiplicative_and_injective():
    rng = random.Random(97)
    tri = once_punctured_torus()
    source, target = _tori_pair(tri)
    lattice = balanced_lattice_basis(tri)
    for _ in range(100):
        x = random_balanced(source, tri, lattice, rng)
        y = random_balanced(source, tri, lattice, rng)
        fx = frobenius_map(x, target, 3)
        fy = frobenius_map(y, target, 3)
        assert frobenius_map(x * y, target, 3) == fx * fy
    # injectivity on monomials: distinct exponents stay distinct
    seen = set()
    for k in [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]:
        img = frobenius_map(source.ordered_monomial(k), target, 3)
        key = next(iter(img.terms))
        assert key not in seen
        seen.add(key)


def test_frobenius_parameter_check():
    tri = once_punctured_torus()
    mu = RING.zeta_pow(1)
    target = QuantumTorus.from_triangulation(RING, tri, mu)
    wrong_source = QuantumTorus.from_triangulation(RING, tri, mu)
    x = wrong_source.ordered_monomial((1, 0, 0))
    with pytest.raises(ValueError):
        frobenius_map(x, target, 3)
    # only powers of the root are accepted as torus parameters
    with pytest.raises(ValueError):
        QuantumTorus.from_triangulation(RING, tri, RING.one + RING.zeta_pow(1))


FROBENIUS_RINGS = [ScalarRing.root_of_unity(5), ScalarRing.generic()]


def _frobenius_target(ring):
    """The torus of once_punctured_torus() at parameter zeta**2 (v**2), and
    the parameter its order-3 Frobenius source must have."""
    target = QuantumTorus.from_triangulation(ring, once_punctured_torus(), ring.zeta_pow(2))
    return target, ring.zeta_pow(2 * 3 * 3)


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=["root", "generic"])
def test_frobenius_map_refuses_another_ring(ring):
    target, nu = _frobenius_target(ring)
    other = ScalarRing.root_of_unity(7)
    source = QuantumTorus(other, target.sigma, other.zeta_pow(2 * 3 * 3))
    with pytest.raises(ValueError, match=r"^source and target tori are incompatible$"):
        frobenius_map(source.generator(0), target, 3)
    # an equal ring built apart is the same ring
    twin = ScalarRing.root_of_unity(5) if ring.order else ScalarRing.generic()
    source = QuantumTorus(twin, target.sigma, twin.zeta_pow(2 * 3 * 3))
    assert frobenius_map(source.generator(0), target, 3) == target.ordered_monomial((3, 0, 0))


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=["root", "generic"])
def test_frobenius_map_refuses_another_exchange_matrix(ring):
    target, nu = _frobenius_target(ring)
    source = QuantumTorus(ring, [[-x for x in row] for row in target.sigma], nu)
    with pytest.raises(ValueError, match=r"^source and target tori are incompatible$"):
        frobenius_map(source.generator(0), target, 3)


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=["root", "generic"])
def test_frobenius_map_refuses_another_parameter(ring):
    """The source parameter must be the target's (zeta**2) to the power
    order**2: zeta**18 = zeta**3 at N = 5 for order 3, v**18 in generic
    mode; every other root power is refused."""
    target, _ = _frobenius_target(ring)
    tri = once_punctured_torus()
    for order in (1, 3, 5):
        image = target.ordered_monomial((0, order, 0))
        for m in range(-20, 21):
            source = QuantumTorus.from_triangulation(ring, tri, ring.zeta_pow(m))
            if ring.zeta_pow(m) == ring.zeta_pow(2 * order * order):
                assert frobenius_map(source.generator(1), target, order) == image
            else:
                with pytest.raises(ValueError, match=r"^source parameter is not the expected power$"):
                    frobenius_map(source.generator(1), target, order)


def test_frobenius_sends_generators_to_powers():
    tri = once_punctured_torus()
    source, target = _tori_pair(tri)
    for i in range(3):
        img = frobenius_map(source.generator(i), target, 3)
        assert img == target.ordered_monomial((3 if i == 0 else 0,
                                               3 if i == 1 else 0,
                                               3 if i == 2 else 0))


# -- basis, grading, degree --------------------------------------------------------


def test_puncture_basis_rows_and_unimodularity():
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        zb = balanced_puncture_basis(tri)
        assert len(zb.vectors) == tri.edge_count
        for name, z in zip(tri.punctures, zb.vectors):
            assert z == central_puncture_exponent(tri, name)
        # coordinates of every basis vector are integral unit vectors
        for i, z in enumerate(zb.vectors):
            coords = zb.coordinates(z)
            assert coords == tuple(1 if j == i else 0 for j in range(len(zb.vectors)))


def test_coordinates_reject_unbalanced():
    tri = once_punctured_torus()
    zb = balanced_puncture_basis(tri)
    with pytest.raises(ValueError):
        zb.coordinates((1, 0, 0))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda rows: ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "one balanced vector per edge"),
        (lambda rows: tuple(tuple(2 * x for x in row) for row in rows), "determinant 16 "),
        (lambda rows: rows[:2] + ((0, 2, 0),), "determinant -4 "),
        (lambda rows: rows[:2] + ((2, 0, 0),), "determinant 0 "),
        (lambda rows: rows[:2], "one balanced vector per edge"),
    ],
    ids=["unit-rows", "doubled-rows", "index-2-row", "dependent-row", "too-few-rows"],
)
def test_zbasis_refuses_rows_that_are_not_a_basis_of_the_balanced_lattice(change, message):
    """The torus's balanced lattice has index 2 in Z^3: (1, 0, 0) is not in it,
    and rows of determinant other than +-2 do not span it."""
    tri = once_punctured_torus()
    with pytest.raises(ValueError, match=message):
        ZBasis(tri, change(balanced_puncture_basis(tri).vectors))


def test_zbasis_with_a_negative_determinant():
    rng = random.Random(3)
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        zb = balanced_puncture_basis(tri)
        p, n = zb.p, tri.edge_count
        rows = list(zb.vectors)
        rows[p], rows[p + 1] = rows[p + 1], rows[p]
        swapped = ZBasis(tri, tuple(rows))
        lattice = balanced_lattice_basis(tri)
        for _ in range(50):
            coeffs = [rng.randint(-9, 9) for _ in range(n)]
            k = tuple(sum(c * v[j] for c, v in zip(coeffs, lattice)) for j in range(n))
            want = list(zb.coordinates(k))
            want[p], want[p + 1] = want[p + 1], want[p]
            assert swapped.coordinates(k) == tuple(want)
            assert swapped.grading(k) == zb.grading(k)


def _fraction_inverse(matrix):
    """Inverse of an invertible integer matrix by Gauss-Jordan over Fraction."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def _fraction_coordinates(inv, k):
    """Coordinates sum_j k_j inv[j][i], for ``inv`` the basis inverse over Fraction."""
    n = len(inv)
    return [sum(k[j] * inv[j][i] for j in range(n)) for i in range(n)]


def test_integer_coordinates_match_fraction_inverse():
    rng = random.Random(808)
    late_only = 0
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        zb = balanced_puncture_basis(tri)
        inv = _fraction_inverse(zb.vectors)
        lattice = balanced_lattice_basis(tri)
        n = tri.edge_count
        for _ in range(200):
            coeffs = [rng.randint(-9, 9) for _ in range(n)]
            k = tuple(sum(c * v[j] for c, v in zip(coeffs, lattice)) for j in range(n))
            coords = zb.coordinates(k)
            assert all(type(c) is int for c in coords)
            assert list(coords) == _fraction_coordinates(inv, k)
            back = tuple(sum(c * v[j] for c, v in zip(coords, zb.vectors)) for j in range(n))
            assert back == k
            # off the lattice by one edge: some coordinate is not an integer
            j = rng.randrange(n)
            off = tuple(x + (i == j) for i, x in enumerate(k))
            assert not balanced_check(tri, off)
            with pytest.raises(ValueError, match="not in the balanced lattice"):
                zb.coordinates(off)
            exact = _fraction_coordinates(inv, off)
            late_only += all(x.denominator == 1 for x in exact[: zb.p])
    # some of those fail only past the p grading coordinates, so all n are checked
    assert late_only > 0


def test_puncture_basis_of_a_large_glued_triangulation():
    tri = _glued_triangulation(100, random.Random(9))
    zb = balanced_puncture_basis(tri)
    n = tri.edge_count
    for i, z in enumerate(zb.vectors):
        assert zb.coordinates(z) == tuple(int(i == j) for j in range(n))
    rng = random.Random(150)
    lattice = balanced_lattice_basis(tri)
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(n)]
        k = tuple(sum(c * v[j] for c, v in zip(coeffs, lattice)) for j in range(n))
        coords = zb.coordinates(k)
        assert tuple(sum(c * v[j] for c, v in zip(coords, zb.vectors)) for j in range(n)) == k


def test_glued_triangulation_file_is_the_seed_9_gluing():
    path = Path(__file__).parent / "data" / "glued-150.json"
    assert Triangulation.from_json(path.read_text()) == _glued_triangulation(100, random.Random(9))


def test_exchange_matrix_of_the_glued_file_is_antisymmetric_in_range():
    path = Path(__file__).parent / "data" / "glued-150.json"
    sigma = exchange_matrix(Triangulation.from_json(path.read_text()))
    assert len(sigma) == 150
    for i, row in enumerate(sigma):
        assert len(row) == 150
        for j, entry in enumerate(row):
            assert entry == -sigma[j][i]
            assert -2 <= entry <= 2


def test_qt_deg_monomials_and_lex_max():
    tri = once_punctured_torus()
    zb = balanced_puncture_basis(tri)
    torus = QuantumTorus.from_triangulation(RING, tri)
    z1 = torus.weyl_monomial(zb.vectors[0])
    assert qt_deg(z1, zb) == (1,)
    low = torus.weyl_monomial(tuple(-e for e in zb.vectors[0]))
    assert qt_deg(z1 + low, zb) == (1,)
    with pytest.raises(ValueError):
        qt_deg(torus.zero(), zb)


def test_qt_deg_additive_random():
    rng = random.Random(5150)
    for tri in (once_punctured_torus(), four_punctured_sphere()):
        zb = balanced_puncture_basis(tri)
        torus = QuantumTorus.from_triangulation(RING, tri)
        lattice = balanced_lattice_basis(tri)
        for _ in range(100):
            x = random_balanced(torus, tri, lattice, rng)
            y = random_balanced(torus, tri, lattice, rng)
            expect = tuple(a + b for a, b in zip(qt_deg(x, zb), qt_deg(y, zb)))
            assert qt_deg(x * y, zb) == expect


# -- the center-free certificate ----------------------------------------------------


def _graded_elements(x_map):
    """Once-punctured torus data: for each residue k the Weyl monomial of
    x_k times the puncture vector, an element of grade x_k."""
    tri = once_punctured_torus()
    source, target = _tori_pair(tri)
    zb = balanced_puncture_basis(tri)
    z = zb.vectors[0]
    elements = {k: source.weyl_monomial(tuple(x[0] * e for e in z)) for k, x in x_map.items()}
    assert all(qt_deg(elements[k], zb) == x for k, x in x_map.items())
    return dict(target=target, zbasis=zb, elements=elements)


def test_center_free_certificate_distinct_combined_vectors():
    x_map = {(0,): (5,), (1,): (-2,), (2,): (0,)}
    cert = center_free_certificate(3, **_graded_elements(x_map))
    assert cert.combined == ((15,), (-5,), (2,))
    assert cert.distinct
    assert cert.certified


def test_center_free_certificate_box_keys_always_distinct():
    rng = random.Random(11)
    for _ in range(50):
        x_map = {(r,): (rng.randint(-10, 10),) for r in range(3)}
        cert = center_free_certificate(3, **_graded_elements(x_map))
        assert cert.distinct
        assert cert.certified


def test_center_free_negative_control():
    """Keys outside the residue box can collide; the certificate must refuse."""
    x_map = {(0,): (1,), (3,): (0,)}
    cert = center_free_certificate(3, **_graded_elements(x_map))
    assert cert.combined == ((3,), (3,))
    assert not cert.certified
    assert not cert.distinct


def test_center_free_with_expansion():
    rng = random.Random(230)
    tri = once_punctured_torus()
    source, target = _tori_pair(tri)
    zb = balanced_puncture_basis(tri)
    lattice = balanced_lattice_basis(tri)
    for _ in range(10):
        elements = {(r,): random_balanced(source, tri, lattice, rng) for r in range(3)}
        cert = center_free_certificate(3, target=target, zbasis=zb, elements=elements)
        assert cert.certified
        assert cert.expansion_nonzero
        assert cert.expansion_deg_matches


def test_center_free_power_table_matches_powers():
    """Several punctures: the expansion agrees with one built from ``**``."""
    rng = random.Random(31)
    tri = four_punctured_sphere()
    source, target = _tori_pair(tri)
    zb = balanced_puncture_basis(tri)
    lattice = balanced_lattice_basis(tri)
    assert zb.p >= 2
    elements = {
        k: random_balanced(source, tri, lattice, rng)
        for k in itertools.product(range(3), repeat=zb.p)
    }
    cert = center_free_certificate(3, target=target, zbasis=zb, elements=elements)
    z_half = [
        target.weyl_monomial(z) + target.weyl_monomial(tuple(-e for e in z))
        for z in zb.vectors[: zb.p]
    ]
    total = target.zero()
    for k, l in elements.items():
        image = frobenius_map(l, target, 3)
        for zh, ki in zip(z_half, k):
            image = image * zh**ki
        total = total + image
    top = max(tuple(3 * x + r for x, r in zip(qt_deg(l, zb), k)) for k, l in elements.items())
    assert cert.expansion_nonzero == (not total.is_zero())
    assert cert.expansion_deg_matches == (not total.is_zero() and qt_deg(total, zb) == top)


def test_center_free_negative_residue_refused():
    tri = once_punctured_torus()
    source, target = _tori_pair(tri)
    zb = balanced_puncture_basis(tri)
    with pytest.raises(ValueError, match="non-negative"):
        center_free_certificate(3, target=target, zbasis=zb, elements={(-1,): source.one()})


# -- input rules: integers and coefficients ---------------------------------------

FOREIGN = ScalarRing.root_of_unity(5).zeta_pow(1)
NON_INTEGERS = pytest.mark.parametrize("value", [1.7, "2", True], ids=["float", "string", "bool"])


def _torus():
    return QuantumTorus.from_triangulation(RING, once_punctured_torus())


@NON_INTEGERS
def test_ordered_monomial_refuses_non_integer_exponents(value):
    with pytest.raises(TypeError, match="expected an integer"):
        _torus().ordered_monomial((value, 0, 0))


@NON_INTEGERS
def test_weyl_monomial_refuses_non_integer_exponents(value):
    with pytest.raises(TypeError, match="expected an integer"):
        _torus().weyl_monomial((value, 1, 0))


@pytest.mark.parametrize(
    "value, error",
    [(0.5, TypeError), ("1", TypeError), (True, TypeError), (FOREIGN, ValueError)],
    ids=["float", "string", "bool", "foreign-ring"],
)
def test_ordered_monomial_refuses_coefficients(value, error):
    with pytest.raises(error, match="different rings" if error is ValueError else "expected"):
        _torus().ordered_monomial((1, 0, 0), value)


@NON_INTEGERS
def test_torus_refuses_non_integer_exchange_entries(value):
    with pytest.raises(TypeError, match="expected an integer"):
        QuantumTorus(RING, [[0, value], [-1, 0]])


@pytest.mark.parametrize(
    "value, error, message",
    [
        (2.0, TypeError, "expected"),
        ("2", TypeError, "expected"),
        (True, TypeError, "expected"),
        (FOREIGN, ValueError, "scalars from different rings"),
        (2, ValueError, "power of the root"),
    ],
    ids=["float", "string", "bool", "foreign-ring", "int"],
)
def test_torus_refuses_parameters(value, error, message):
    with pytest.raises(error, match=message):
        QuantumTorus(RING, [[0, 1], [-1, 0]], value)


@NON_INTEGERS
def test_frobenius_map_refuses_non_integer_orders(value):
    source, target = _tori_pair(once_punctured_torus())
    with pytest.raises(TypeError, match="expected an integer"):
        frobenius_map(source.generator(0), target, value)


@pytest.mark.parametrize("place", ["order", "residue"])
@NON_INTEGERS
def test_center_free_certificate_refuses_non_integers(place, value):
    data = _graded_elements({(0,): (0,), (2,): (0,)})
    if place == "residue":
        data["elements"][(value,)] = data["elements"][(0,)]
    with pytest.raises(TypeError, match="expected an integer"):
        center_free_certificate(value if place == "order" else 3, **data)


@pytest.mark.parametrize("i", [True, 1.0], ids=["bool", "float"])
def test_generator_index_follows_the_integer_rule(i):
    with pytest.raises(TypeError, match="expected an integer, got"):
        _torus().generator(i)


@pytest.mark.parametrize("i", [-1, 3])
def test_generator_refuses_an_index_outside_the_rank(i):
    with pytest.raises(ValueError, match=rf"generator index {i} is outside 0\.\.2"):
        _torus().generator(i)


def test_weyl_monomial_refuses_a_short_vector():
    with pytest.raises(ValueError, match="exponent vector has wrong length"):
        _torus().weyl_monomial((1, 0))


def _frobenius_at_order_zero():
    """Y^(2,0,0) + 3 Y^(0,2,0) at N = 5 under the map of order 0, which passes
    the parameter check since the source parameter is zeta^0 = 1."""
    ring, tri = ScalarRing.root_of_unity(5), once_punctured_torus()
    source = QuantumTorus.from_triangulation(ring, tri, ring.zeta_pow(0))
    x = source.weyl_monomial((2, 0, 0)) + 3 * source.weyl_monomial((0, 2, 0))
    return frobenius_map(x, QuantumTorus.from_triangulation(ring, tri), 0)


def _certificate_with(elements):
    """center_free_certificate at order 3 over the once-punctured torus, with
    ``elements`` a function of one balanced element of grade 0."""
    data = _graded_elements({(0,): (0,)})
    data["elements"] = elements(data["elements"][(0,)])
    return center_free_certificate(3, **data)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: balanced_puncture_basis(once_punctured_torus()).coordinates((0,)),
         "vector has wrong length"),
        (lambda: QuantumTorus(RING, [[0, 1], [-1]]), "exchange matrix must be square"),
        (lambda: QuantumTorus(RING, [[0, 1], [-1, 0]]).ordered_monomial((1,)),
         "exponent vector has wrong length"),
        (lambda: central_puncture_element(
            QuantumTorus(RING, exchange_matrix(once_punctured_torus())), "v0"),
         "torus was not built from a triangulation"),
        (lambda: _certificate_with(lambda l: {(0, 1): l}), "residue tuple has wrong length"),
        (lambda: _certificate_with(lambda l: {(0,): l - l}), "balanced elements must be nonzero"),
        (lambda: OqAlgebra(RING).in_diagonal_tower(
            OqAlgebra(ScalarRing.root_of_unity(5)).one(), 1),
         "element from a different algebra"),
        (lambda: OqAlgebra(RING).in_diagonal_tower(OqAlgebra(RING).one(), -1),
         "tower height must be a natural number"),
        (lambda: OqAlgebra(RING).independence_certificate({}), "empty coefficient map"),
        (lambda: Polynomial({-1: 1}), "negative exponent"),
        (_frobenius_at_order_zero, "order 0"),
    ],
    ids=["zbasis-coordinates-length", "sigma-not-square", "ordered-monomial-length",
         "puncture-without-triangulation", "certificate-residue-length",
         "certificate-zero-element", "tower-foreign-element",
         "tower-negative-height", "independence-empty-map", "polynomial-negative-exponent",
         "frobenius-order-zero"],
)
def test_refusals_of_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
