"""Named verification suites behind the command line front end.

Each suite is a list of (check id, callable) pairs.  A check receives its
own random.Random instance seeded from the global seed and the check id,
so reports are deterministic for a given seed whatever order the checks
run in.  Checks return a short detail string on success and raise
CheckFailure (or any exception, reported as an error) otherwise.

This module is the runner and holds the one table of suites, ``SUITES``.
Each suite's builder lives in the module named after it (``bigon``,
``qtorus``, ``torus_skein``, ``chebyshev``, ``counts``) and is found from its
name on first use: ``suites.bigon_suite`` imports ``suites.bigon`` and the
layers it needs, and no other suite.
"""

import importlib
import random
import time
import zlib
from typing import Callable, NamedTuple, Sequence

MAX_WORK = 3 * 10**7
"""Largest work size a suite accepts, checked before it builds anything: the
entries of its index sets, tables and matrices, the coefficient pairs of
its largest polynomial product, and an N^3 term for the expansions that grow
fastest in N (``qtorus``, ``torus-skein``).  It bounds memory, not time;
``counts`` streams its index sets, so there it bounds run time only."""

MAX_EXP = 12
"""Largest ``bigon`` exponent cap, checked before anything is built: the
word-rewriting check's run time grows steeply in it, and unevenly by seed."""

SUITES = {
    "bigon": ("trials", "max_exp"),
    "qtorus": ("trials", "triangulation"),
    "torus-skein": ("kmax", "trials"),
    "chebyshev": ("trials",),
    "counts": (),
}
"""The suites ``qskein verify`` runs, each with the knobs its builder takes
after N, in order, named as ``verify``'s options are (``max_exp`` for
``--max-exp``).  Suite ``s`` is built by ``<m>_suite`` in module ``m``, where
m is s with "-" read as "_"."""


def __getattr__(name: str):
    """Look a builder up in its suite module, importing the module on first use."""
    module = name.removesuffix("_suite")
    if module == name or module not in [s.replace("-", "_") for s in SUITES]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


class CheckFailure(Exception):
    """A verification check did not hold."""


class CheckResult(NamedTuple):
    id: str
    status: str
    detail: str
    elapsed_ms: float


Check = tuple[str, Callable[[random.Random], str]]


def run_checks(checks: Sequence[Check], seed: int) -> list[CheckResult]:
    """Run every check with a per-check seeded RNG; sorted by id."""
    results = []
    for check_id, fn in checks:
        rng = random.Random(zlib.crc32(check_id.encode()) ^ seed)
        start = time.perf_counter()
        try:
            detail = fn(rng)
            status = "pass"
        except CheckFailure as exc:
            detail = str(exc)
            status = "fail"
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            detail = f"{type(exc).__name__}: {exc}"
            status = "error"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(check_id, status, detail, round(elapsed, 3)))
    return sorted(results, key=lambda r: r.id)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A random int in 0..n-1 read from ``bits``, an rng's ``getrandbits``.

    It reads n.bit_length() bits, again while the value is >= n, as
    ``Random._randbelow`` does for ``choice``, ``randint``, ``randrange`` and
    ``sample``: the value and stream of ``randint(0, n - 1)``, for less.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _require(cond: bool, message: str | Callable[[], str]):
    """Fail unless ``cond``; ``message`` is text or a function giving it,
    called only on failure, so that a passing check formats nothing."""
    if not cond:
        raise CheckFailure(message if isinstance(message, str) else message())


def _checked_spanning_count(order: int) -> int:
    """Size of the bigon's spanning set by enumeration, failing unless the formula agrees."""
    # imported here, so that the runner loads no layer
    from ..dimensions import iter_spanning_set, spanning_count_formula

    got = sum(1 for _ in iter_spanning_set(order))
    want = spanning_count_formula(order)
    _require(got == want, lambda: f"enumeration {got} != formula {want}")
    return got


def _false_fields(cert) -> str:
    """Names of a certificate's False fields, ``certified`` aside."""
    names = [name for name in cert._fields if name != "certified"]
    return ", ".join(name for name in names if getattr(cert, name) is False)


def _refuse_oversized(suite: str, size: int):
    if size > MAX_WORK:
        raise ValueError(f"{suite} work size {size} exceeds {MAX_WORK}; refused")


def _random_polynomial(rng: random.Random, top: int):
    """A random nonzero polynomial of degree at most ``top``.

    It draws, in order: the degree, _below(bits, top + 1); then per
    coefficient ``random() < 0.6`` and, when true, _below(bits, 13) - 6.
    An all-zero draw becomes x^degree.
    """
    # imported here, so that the runner loads no layer
    from ..chebyshev import from_dense

    bits, rand = rng.getrandbits, rng.random
    degree = _below(bits, top + 1)
    coeffs = [_below(bits, 13) - 6 if rand() < 0.6 else 0 for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[degree] = 1
    return from_dense(coeffs)
