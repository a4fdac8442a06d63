"""The ``bigon`` suite: O_q(SL2), the stated skein algebra of the bigon."""

import random
from fractions import Fraction
from itertools import product

from ..dimensions import spanning_count_formula
from ..linear import accumulate
from ..oq_sl2 import OqAlgebra, OqElement, pbw_word
from ..scalars import ScalarRing
from . import (
    MAX_EXP,
    Check,
    CheckFailure,
    _below,
    _checked_spanning_count,
    _false_fields,
    _refuse_oversized,
    _require,
)


def _index_sampler(cap: int):
    """A function of an ``rng`` giving a random PBW index with entries in 0..cap.

    Each call draws, in order: _below(bits, cap + 1) for k1, for k2 when
    k1 == 0, then for k3 and k4.
    """
    n = cap + 1

    def draw(rng: random.Random):
        bits = rng.getrandbits
        k1 = _below(bits, n)
        return (k1, 0 if k1 else _below(bits, n), _below(bits, n), _below(bits, n))

    return draw


def _frobenius_sampler(alg: OqAlgebra, cap: int = 2):
    """A function of an ``rng`` giving one or two random rational multiples
    of N-th power monomials of ``alg``; the unit if they cancel.

    Each call draws, in order: the number of terms, 1 + _below(bits, 2);
    for each term, its index, then c = 1 + _below(bits, 5), den =
    1 + _below(bits, 3) and ``random() < 0.5``, which negates c / den.  The
    pairs (c / den, -c / den) are kept as scalars of the algebra's own ring
    object.
    """
    n, from_rational, index = alg.order, alg.ring.from_rational, _index_sampler(cap)
    coefficients = tuple(
        tuple((from_rational(Fraction(c, den)), from_rational(Fraction(-c, den)))
              for den in (1, 2, 3))
        for c in range(1, 6)
    )

    def draw(rng: random.Random):
        bits, rand = rng.getrandbits, rng.random
        terms: dict = {}
        for _ in range(1 + _below(bits, 2)):
            k1, k2, k3, k4 = index(rng)
            accumulate(terms, (n * k1, n * k2, n * k3, n * k4),
                       coefficients[_below(bits, 5)][_below(bits, 3)][rand() < 0.5])
        return OqElement(alg, terms) if terms else alg.one()

    return draw


def _key_sampler(order: int):
    """A function of an ``rng`` giving 1 to 4 distinct indices (0, j, k, l)
    of the basis box, j, k, l in 0..N-1.

    Each call draws, in order: the number of keys, 1 + _below(bits, 4); then
    per key p = _below(bits, N^3), again while p repeats one already drawn,
    read as (0, p // N^2, p // N % N, p % N).  Those are the draws of
    ``randint(1, 4)`` and ``sample(range(N^3), size)`` (for N^3 > 21, where
    ``sample`` keeps a set; at N = 1 both draw _below(bits, 1) once).
    """
    n2 = order * order
    cube = n2 * order
    most = min(4, cube)

    def draw(rng: random.Random):
        bits = rng.getrandbits
        picks: list[int] = []
        for _ in range(1 + _below(bits, most)):
            p = _below(bits, cube)
            while p in picks:
                p = _below(bits, cube)
            picks.append(p)
        return [(0, p // n2, p // order % order, p % order) for p in picks]

    return draw


def bigon_suite(order: int, trials: int, max_exp: int) -> list[Check]:
    if max_exp > MAX_EXP:
        raise ValueError(f"bigon exponent cap {max_exp} exceeds {MAX_EXP}; refused")
    _refuse_oversized("bigon", order**3 + spanning_count_formula(order))
    ring = ScalarRing.root_of_unity(order)
    alg = OqAlgebra(ring)
    draw_index, draw_wide = _index_sampler(max_exp), _index_sampler(max_exp + 2)
    draw_frobenius, draw_keys = _frobenius_sampler(alg), _key_sampler(order)

    def check_word_vs_structured(rng: random.Random) -> str:
        for _ in range(trials):
            u, v = draw_index(rng), draw_index(rng)
            lhs = alg.normal_form(pbw_word(u) + pbw_word(v))
            rhs = alg.power_product(u) * alg.power_product(v)
            _require(lhs == rhs, lambda: f"normal form disagrees on {u} * {v}")
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
                lambda: f"a^{t} d^{t} escapes the diagonal tower",
            )
        return f"a^t d^t lies in the tower for t <= {top}"

    def check_frobenius_commutes(rng: random.Random) -> str:
        gens = [alg.frobenius_generator(l) for l in "abcd"]
        for i in range(4):
            for j in range(i + 1, 4):
                _require(
                    gens[i] * gens[j] == gens[j] * gens[i],
                    lambda: f"generators {i} and {j} of the power subalgebra do not commute",
                )
        return "N-th powers of the generators pairwise commute"

    def check_independence(rng: random.Random) -> str:
        for _ in range(trials):
            coeff_map = {k: draw_frobenius(rng) for k in draw_keys(rng)}
            cert = alg.independence_certificate(coeff_map)
            _require(
                cert.certified,
                lambda: f"certificate refused on keys {sorted(coeff_map)}: "
                f"{_false_fields(cert)} false",
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
