"""The ``chebyshev`` suite: Chebyshev identities and reduction over T_N."""

import random

from ..chebyshev import chebyshev_reduce, chebyshev_s, chebyshev_t
from . import Check, _random_polynomial, _refuse_oversized, _require


def chebyshev_suite(order: int, trials: int) -> list[Check]:
    _refuse_oversized("chebyshev", (5 * order) ** 2)

    def check_t_minus_s(rng: random.Random) -> str:
        for n in range(2, 13):
            _require(
                chebyshev_t(n) == chebyshev_s(n) - chebyshev_s(n - 2),
                lambda: f"T_{n} != S_{n} - S_{n - 2}",
            )
        return "T_n = S_n - S_(n-2) for 2 <= n <= 12"

    def check_composition(rng: random.Random) -> str:
        for m in range(1, 7):
            for n in range(1, 7):
                _require(
                    chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n),
                    lambda: f"T_{m} o T_{n} != T_{m * n}",
                )
        return "T_m o T_n = T_(mn) for m, n <= 6"

    def check_reduce(rng: random.Random) -> str:
        for t in range(trials):
            p = _random_polynomial(rng, 5 * order)
            form = chebyshev_reduce(p, order)
            _require(
                form.substitute() == p, lambda: f"reduction does not round-trip at trial {t}"
            )
        return f"{trials} random polynomials of degree <= {5 * order} round-trip"

    return [
        ("chebyshev-composition", check_composition),
        ("chebyshev-reduce-round-trip", check_reduce),
        ("chebyshev-t-minus-s", check_t_minus_s),
    ]
