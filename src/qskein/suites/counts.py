"""The ``counts`` suite: the basis box and the spanning set against their formulas."""

import random

from ..dimensions import iter_basis_box, spanning_count_formula
from . import Check, _checked_spanning_count, _refuse_oversized, _require


def counts_suite(order: int) -> list[Check]:
    _refuse_oversized("counts", order**3 + spanning_count_formula(order))

    def check_formula(rng: random.Random) -> str:
        return f"spanning enumeration matches the formula: {_checked_spanning_count(order)}"

    def check_box(rng: random.Random) -> str:
        got = sum(1 for _ in iter_basis_box(order))
        _require(got == order**3, lambda: f"box has {got} elements, wanted {order ** 3}")
        return f"basis box has exactly {got} elements"

    return [
        ("counts-basis-box", check_box),
        ("counts-spanning-formula", check_formula),
    ]
