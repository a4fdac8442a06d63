"""The ``counts`` suite: the basis box and the spanning set against their formulas."""

import random

from ..dimensions import spanning_count_formula
from ..oq_sl2 import iter_basis_box, iter_spanning_set
from . import Check, _refuse_oversized, _require


def counts_suite(order: int) -> list[Check]:
    _refuse_oversized("counts", order**3 + spanning_count_formula(order))

    def check_formula(rng: random.Random) -> str:
        got = sum(1 for _ in iter_spanning_set(order))
        want = spanning_count_formula(order)
        _require(got == want, f"enumeration {got} != formula {want}")
        return f"spanning enumeration matches the formula: {got}"

    def check_box(rng: random.Random) -> str:
        got = sum(1 for _ in iter_basis_box(order))
        _require(got == order**3, f"box has {got} elements, wanted {order ** 3}")
        return f"basis box has exactly {got} elements"

    return [
        ("counts-basis-box", check_box),
        ("counts-spanning-formula", check_formula),
    ]
