"""Acceptance gate for the package.

Each test below covers one numbered acceptance criterion and prints a single
PASS or FAIL line (run pytest with -s to see the lines; with plain -v the
per-test PASSED/FAILED report carries the same information).  All comparisons
are exact: the scalars are cyclotomic-rational, so there is no tolerance
anywhere, and the slow sweeps assert their own wall-clock budgets.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qskein import (
    Marked3ManifoldDescriptor,
    OqAlgebra,
    Polynomial,
    QuantumTorus,
    ScalarRing,
    SurfaceDescriptor,
    balanced_check,
    balanced_lattice_basis,
    balanced_puncture_basis,
    basis_box,
    center_free_certificate,
    central_puncture_element,
    central_puncture_exponent,
    chebyshev_reduce,
    chebyshev_s,
    chebyshev_t,
    exchange_matrix,
    four_punctured_sphere,
    frobenius_map,
    is_central,
    lambda_bounds,
    localized_dimension,
    module_bound,
    once_punctured_torus,
    qt_deg,
    s1s2_frobenius_matrix,
    s1s2_reduce,
    spanning_count_formula,
    spanning_set,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


def random_pbw_index(rng, cap):
    k = [rng.randint(0, cap) for _ in range(4)]
    if k[0] and k[1]:
        k[rng.choice([0, 1])] = 0
    return tuple(k)


def random_subalgebra_coefficient(alg, rng):
    """Nonzero element of the power subalgebra with small random support."""
    seen = set()
    total = alg.zero()
    for _ in range(rng.randint(1, 2)):
        u = random_pbw_index(rng, 2)
        if u in seen:
            continue
        seen.add(u)
        scale = Fraction(rng.choice([1, 2, 3, -1, -2]))
        total = total + alg.frobenius_monomial(u) * scale
    if total.is_zero():
        total = alg.one()
    return total


def test_criterion_01_independence_and_localized_expansion():
    with criterion("01 independence certificates and localized expansion"):
        started = time.monotonic()
        alg = OqAlgebra(ScalarRing.root_of_unity(3))
        box = basis_box(3)
        assert len(box) == 27
        rng = random.Random(20260814)

        for _ in range(1000):
            picked = rng.sample(box, rng.randint(1, 4))
            coeffs = {v: random_subalgebra_coefficient(alg, rng) for v in picked}
            cert = alg.independence_certificate(coeffs)
            assert cert.certified
            assert cert.indices_distinct
            assert cert.combination_nonzero

        lifted = set()
        pairs = 0
        for u in itertools.product(range(3), repeat=4):
            if u[0] and u[1]:
                continue
            for v in box:
                lifted.add(alg.lifted_leading_index(u, v))
                pairs += 1
        assert len(lifted) == pairs

        box_set = set(box)
        for _ in range(200):
            m = random_pbw_index(rng, 6)
            expr = alg.localized_express(m)
            assert expr.power in (0, 1)
            left = alg.basis_monomial((0, 3 * expr.power, 0, 0)) * alg.basis_monomial(m)
            right = alg.zero()
            for v, coeff in expr.coefficients.items():
                assert v in box_set
                assert alg.is_frobenius_element(coeff)
                right = right + coeff * alg.basis_monomial(v)
            assert left == right

        assert time.monotonic() - started < 120.0


def test_criterion_02_degree_formula_exhaustive():
    with criterion("02 degree formula matches the product engine"):
        started = time.monotonic()
        for order in (3, 5):
            alg = OqAlgebra(ScalarRing.root_of_unity(order))
            for k in itertools.product(range(2 * order + 1), repeat=4):
                assert alg.monomial_degree(k) == alg.power_product(k).deg()
        assert time.monotonic() - started < 60.0


def test_criterion_03_diagonal_tower_membership():
    with criterion("03 diagonal products sit in their towers"):
        for ring in (ScalarRing.root_of_unity(5), ScalarRing.generic()):
            alg = OqAlgebra(ring)
            for t in range(11):
                assert alg.in_diagonal_tower(alg.power_product((t, t, 0, 0)), t)


def test_criterion_04_spanning_counts_and_expansion():
    with criterion("04 spanning set count and re-expansion"):
        for order in (1, 3, 5, 7, 9):
            box = basis_box(order)
            full = spanning_set(order)
            assert len(set(full)) == len(full)
            assert set(box) <= set(full)
            assert len(full) == spanning_count_formula(order)

        alg = OqAlgebra(ScalarRing.root_of_unity(3))
        allowed = set(spanning_set(3))
        rng = random.Random(4100)
        for _ in range(200):
            m = random_pbw_index(rng, 6)
            expr = alg.express_in_spanning(m)
            total = alg.zero()
            for w, coeff in expr.coefficients.items():
                assert w in allowed
                total = total + coeff * alg.basis_monomial(w)
            assert total == alg.basis_monomial(m)


def test_criterion_05_power_subalgebra_commutes():
    with criterion("05 generator powers commute pairwise"):
        for order in (3, 5, 7):
            alg = OqAlgebra(ScalarRing.root_of_unity(order))
            powers = [alg.frobenius_generator(letter) for letter in "abcd"]
            for x, y in itertools.combinations(powers, 2):
                assert x * y == y * x


def test_criterion_06_chebyshev_identities_and_reduction():
    with criterion("06 Chebyshev identities and reduction round trip"):
        for n in range(2, 13):
            assert chebyshev_t(n) == chebyshev_s(n) - chebyshev_s(n - 2)
        for m in range(7):
            for n in range(7):
                assert chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n)
        rng = random.Random(618)
        for order in (3, 5):
            for _ in range(25):
                degree = rng.randint(0, 5 * order)
                coeffs = {i: Fraction(rng.randint(-4, 4)) for i in range(degree)}
                coeffs[degree] = Fraction(rng.choice([1, 2, -1, -3]))
                p = Polynomial(coeffs)
                assert chebyshev_reduce(p, order).substitute() == p


def test_criterion_07_torus_frobenius_images():
    with criterion("07 torus Frobenius images reduce diagonally"):
        for order in (3, 5):
            for k in range(1, 7):
                reduced = s1s2_reduce(chebyshev_t(k * order), order)
                assert reduced.empty_coeff == 0
                assert reduced.e_coeffs == ((k * order - 2, Fraction(-2)),)
            matrix = s1s2_frobenius_matrix(order, 6)
            for i, row in enumerate(matrix):
                for j, entry in enumerate(row):
                    if i != j:
                        assert entry == 0
                    else:
                        assert entry == (2 if i == 0 else -2)


def test_criterion_08_quantum_torus_fixtures():
    with criterion("08 quantum torus checks on both fixtures"):
        ring = ScalarRing.root_of_unity(3)
        mu = ring.zeta_pow(1)
        nu = mu ** 9
        rng = random.Random(7205)
        for tri in (once_punctured_torus(), four_punctured_sphere()):
            sigma = exchange_matrix(tri)
            n = tri.edge_count
            for i in range(n):
                assert sigma[i][i] == 0
                for j in range(n):
                    assert sigma[i][j] == -sigma[j][i]
                    assert -2 <= sigma[i][j] <= 2

            target = QuantumTorus(ring, sigma, parameter=mu, triangulation=tri)
            for name in tri.punctures:
                assert is_central(target, central_puncture_element(target, name))

            source = QuantumTorus(ring, sigma, parameter=nu, triangulation=tri)

            def random_element(torus, combos):
                total = torus.zero()
                while total.is_zero():
                    for _ in range(rng.randint(1, 2)):
                        if combos is None:
                            k = tuple(rng.randint(-3, 3) for _ in range(n))
                        else:
                            weights = [rng.randint(-2, 2) for _ in combos]
                            k = tuple(
                                sum(w * row[i] for w, row in zip(weights, combos))
                                for i in range(n)
                            )
                        scale = Fraction(rng.choice([1, 2, -1, -3]))
                        total = total + torus.weyl_monomial(k) * scale
                return total

            for _ in range(100):
                x = random_element(source, None)
                y = random_element(source, None)
                left = frobenius_map(x * y, target, 3)
                right = frobenius_map(x, target, 3) * frobenius_map(y, target, 3)
                assert left == right

            lattice = balanced_lattice_basis(tri)
            zb = balanced_puncture_basis(tri)
            for i, name in enumerate(tri.punctures):
                assert zb.vectors[i] == central_puncture_exponent(tri, name)
            for vec in lattice:
                zb.coordinates(vec)
            for vec in zb.vectors:
                assert balanced_check(tri, vec)

            for _ in range(100):
                x = random_element(target, lattice)
                y = random_element(target, lattice)
                expected = tuple(
                    a + b for a, b in zip(qt_deg(x, zb), qt_deg(y, zb))
                )
                assert qt_deg(x * y, zb) == expected


def test_criterion_09_center_free_expansion():
    with criterion("09 center-free certificates with full expansion"):
        tri = once_punctured_torus()
        ring = ScalarRing.root_of_unity(3)
        sigma = exchange_matrix(tri)
        mu = ring.zeta_pow(1)
        target = QuantumTorus(ring, sigma, parameter=mu, triangulation=tri)
        source = QuantumTorus(ring, sigma, parameter=mu ** 9, triangulation=tri)
        zb = balanced_puncture_basis(tri)
        rng = random.Random(9003)

        def element_with_grade(x):
            base = [x * c for c in zb.vectors[0]]
            for row in zb.vectors[1:]:
                t = rng.randint(-1, 2)
                base = [a + t * b for a, b in zip(base, row)]
            return source.weyl_monomial(tuple(base))

        for _ in range(10):
            grades = [rng.randint(0, 2) for _ in range(3)]
            elements = {(k,): element_with_grade(x) for k, x in enumerate(grades)}
            cert = center_free_certificate(3, target=target, zbasis=zb, elements=elements)
            assert cert.certified
            assert cert.distinct
            assert cert.expansion_nonzero
            assert cert.expansion_deg_matches
            assert len(set(cert.combined)) == len(cert.combined)


def test_criterion_10_dimension_values():
    with criterion("10 dimension formulas hit their pinned values"):
        bigon = SurfaceDescriptor(genus=0, punctures=0, boundary=2)
        assert localized_dimension(bigon, 3) == 27
        assert len(basis_box(3)) == 27
        assert lambda_bounds(bigon, 3) == (27, 40)
        assert lambda_bounds(SurfaceDescriptor(1, 1, 0), 3) == (27, 27)
        assert module_bound(Marked3ManifoldDescriptor(genus=2, markings=0), 3) == 27
