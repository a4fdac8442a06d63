"""The ``bigon`` suite: O_q(SL2), the stated skein algebra of the bigon."""

import random
from fractions import Fraction
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


def _index_sampler(cap: int):
    """A function of an ``rng`` giving a random PBW index with entries in 0..cap.

    Each call draws randint(0, cap) for k1, for k2 when k1 == 0, then for
    k3 and k4, made with ``choice``.
    """
    draws = tuple(range(cap + 1))

    def draw(rng: random.Random):
        choice = rng.choice
        k1 = choice(draws)
        return (k1, 0 if k1 else choice(draws), choice(draws), choice(draws))

    return draw


def _frobenius_sampler(alg: OqAlgebra, cap: int = 2):
    """A function of an ``rng`` giving one or two random rational multiples
    of N-th power monomials of ``alg``; the unit if they cancel.

    Each call draws randint(1, 2) terms; each term draws its index, then
    c = randint(1, 5), den = randint(1, 3) and a sign (random() < 0.5
    negates c / den).  The pairs (c / den, -c / den) are kept as scalars of
    the algebra's own ring object.
    """
    n, from_rational, index = alg.order, alg.ring.from_rational, _index_sampler(cap)
    coefficients = tuple(
        tuple((from_rational(Fraction(c, den)), from_rational(Fraction(-c, den)))
              for den in (1, 2, 3))
        for c in range(1, 6)
    )

    def draw(rng: random.Random):
        choice, rand = rng.choice, rng.random
        terms: dict = {}
        for _ in range(choice(_ONE_OR_TWO)):
            k1, k2, k3, k4 = index(rng)
            accumulate(terms, (n * k1, n * k2, n * k3, n * k4),
                       choice(choice(coefficients))[rand() < 0.5])
        return OqElement(alg, terms) if terms else alg.one()

    return draw


def bigon_suite(order: int, trials: int, max_exp: int) -> list[Check]:
    if max_exp > MAX_EXP:
        raise ValueError(f"bigon exponent cap {max_exp} exceeds {MAX_EXP}; refused")
    _refuse_oversized("bigon", order**3 + spanning_count_formula(order))
    ring = ScalarRing.root_of_unity(order)
    alg = OqAlgebra(ring)
    draw_index, draw_wide = _index_sampler(max_exp), _index_sampler(max_exp + 2)
    draw_frobenius = _frobenius_sampler(alg)

    def check_word_vs_structured(rng: random.Random) -> str:
        for _ in range(trials):
            u, v = draw_index(rng), draw_index(rng)
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
            coeff_map = {k: draw_frobenius(rng) for k in keys}
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
                express(draw_wide(rng))
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
