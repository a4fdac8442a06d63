"""The ``bigon`` suite: O_q(SL2), the stated skein algebra of the bigon."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from ..dimensions import spanning_count_formula
from ..linear import accumulate
from ..oq_sl2 import OqAlgebra, OqElement
from ..scalars import ScalarRing
from . import (
    MAX_EXP,
    _ONE_OR_TWO,
    Check,
    CheckFailure,
    _checked_spanning_count,
    _false_fields,
    _refuse_oversized,
    _require,
)

@lru_cache(maxsize=None)
def _up_to(cap: int) -> tuple[int, ...]:
    return tuple(range(cap + 1))


@lru_cache(maxsize=2)
def _coefficients(ring: ScalarRing, ring_id: int) -> tuple:
    """``[c - 1][den - 1]`` is the pair (c / den, -c / den) of scalars, c <= 5, den <= 3.

    Pass ``id(ring)``: rings compare equal by order, so the id keeps
    an equal ring built apart from reading scalars of another ring object.
    """
    return tuple(
        tuple((ring.from_rational(Fraction(c, den)), ring.from_rational(Fraction(-c, den)))
              for den in (1, 2, 3))
        for c in range(1, 6)
    )


def _random_pbw_index(rng: random.Random, cap: int):
    """The draws of randint(0, cap) for k1, for k2 when k1 == 0, then for k3 and k4."""
    draws = _up_to(cap)
    k1 = rng.choice(draws)
    return (k1, 0 if k1 else rng.choice(draws), rng.choice(draws), rng.choice(draws))


def _random_frobenius_element(alg: OqAlgebra, rng: random.Random, cap: int = 2):
    """One or two random rational multiples of N-th power monomials; one if they cancel.

    It draws randint(1, 2) terms; each draws its index, c = randint(1, 5),
    den = randint(1, 3) and a sign (random() < 0.5 negates c / den).
    """
    n, coefficients, choice = alg.order, _coefficients(alg.ring, id(alg.ring)), rng.choice
    terms = {}
    for _ in range(choice(_ONE_OR_TWO)):
        k1, k2, k3, k4 = _random_pbw_index(rng, cap)
        coeff = choice(choice(coefficients))[rng.random() < 0.5]
        accumulate(terms, (n * k1, n * k2, n * k3, n * k4), coeff)
    return OqElement(alg, terms) if terms else alg.one()


def bigon_suite(order: int, trials: int, max_exp: int) -> list[Check]:
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
            try:
                alg.monomial_degree(k)
            except ArithmeticError:
                raise CheckFailure(f"degree mismatch at {k}") from None
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

    def check_re_expansion(express, detail: str):
        def check(rng: random.Random) -> str:
            runs = max(20, trials // 4)
            for _ in range(runs):
                express(_random_pbw_index(rng, max_exp + 2))
            return f"{runs} random monomials {detail}"
        return check

    def check_spanning_count(rng: random.Random) -> str:
        return f"spanning set has {_checked_spanning_count(order)} elements"

    return [
        ("bigon-degree-formula-vs-oracle", check_degree_formula),
        ("bigon-diagonal-tower-membership", check_diagonal_tower),
        ("bigon-independence-certificates", check_independence),
        ("bigon-localized-re-expansion",
         check_re_expansion(alg.localized_express, "re-expanded exactly")),
        ("bigon-power-subalgebra-commutes", check_frobenius_commutes),
        ("bigon-spanning-count", check_spanning_count),
        ("bigon-spanning-re-expansion",
         check_re_expansion(alg.express_in_spanning, "written over the spanning set")),
        ("bigon-word-vs-structured-product", check_word_vs_structured),
    ]
