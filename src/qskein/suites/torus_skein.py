"""The ``torus-skein`` suite: the solid torus and S^1 x S^2 skein modules."""

import random

from .. import torus_skein
from ..chebyshev import Polynomial, chebyshev_a, chebyshev_reduce, chebyshev_t
from . import Check, _random_polynomial, _refuse_oversized, _require


def torus_skein_suite(order: int, kmax: int, trials: int) -> list[Check]:
    # the largest polynomial product, and re-expanding every x^m, m <= 3N
    _refuse_oversized("torus-skein", max(5 * order, kmax * order) ** 2 + order**3)

    def check_round_trip(rng: random.Random) -> str:
        for t in range(trials):
            p = _random_polynomial(rng, 20)
            constant, coeffs = torus_skein.a_basis_expand(p)
            _require(
                torus_skein.a_basis_build(constant, coeffs) == p,
                lambda: f"A-basis expansion does not round-trip at trial {t}",
            )
        return f"{trials} random polynomials round-trip through the A-basis"

    def check_kill_rule(rng: random.Random) -> str:
        for i in range(1, 5 * order + 1):
            reduced = torus_skein.s1s2_reduce(chebyshev_a(i), order)
            if (i + 2) % order == 0:
                _require(
                    reduced.e_coeffs == ((i, 1),)
                    and not reduced.empty_coeff,
                    lambda: f"A_{i} should survive as e_{i}",
                )
            else:
                _require(reduced.is_zero(), lambda: f"A_{i} should die")
        return f"kill rule verified for indices up to {5 * order}"

    def check_diagonal(rng: random.Random) -> str:
        for k in range(1, kmax + 1):
            reduced = torus_skein.s1s2_reduce(chebyshev_t(k * order), order)
            _require(
                not reduced.empty_coeff
                and reduced.e_coeffs == ((k * order - 2, -2),),
                lambda: f"T_{k * order} does not reduce to -2 e_{k * order - 2}",
            )
        return f"T_kN reduces to -2 e_(kN-2) for k <= {kmax}"

    def check_matrix(rng: random.Random) -> str:
        matrix = torus_skein.s1s2_frobenius_matrix(order, kmax)
        size = kmax + 1
        for i in range(size):
            for j in range(size):
                want = (2 if i == 0 else -2) if i == j else 0
                _require(matrix[i][j] == want, lambda: f"entry ({i},{j}) is {matrix[i][j]}")
        return f"{size}x{size} matrix is diag(2, -2, ..., -2)"

    def check_free_rank(rng: random.Random) -> str:
        for m in range(3 * order + 1):
            form = chebyshev_reduce(Polynomial({m: 1}), order)
            _require(
                form.substitute() == Polynomial({m: 1}),
                lambda: f"x^{m} does not round-trip through the T_N expansion",
            )
        return f"x^m certified in span(x^j T_N^k) for m <= {3 * order}"

    return [
        ("torus-skein-a-basis-round-trip", check_round_trip),
        ("torus-skein-frobenius-diagonal", check_diagonal),
        ("torus-skein-frobenius-matrix-invertible", check_matrix),
        ("torus-skein-kill-rule", check_kill_rule),
        ("torus-skein-solid-torus-free-rank", check_free_rank),
    ]
