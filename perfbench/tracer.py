"""Per-layer tracing for one `qskein` command, installed from outside the package.

`install()` wraps the public functions and methods of the layers named in
`LAYERS` in place.  Each wrapper counts calls and keeps self time: the time
inside the wrapped call minus the time spent in wrapped callees.  Frames live
on a per-thread stack and totals in a per-thread table, so the threaded path
of `suites.run_checks` is traced without a lock on the hot path.  A wrapped
call made directly from a wrapper of the same name (an alias such as
`__rmul__`, `__sub__` calling `__add__`, or `q_pow` calling `zeta_pow`) is
part of that call and is not counted twice.

Only public names are used: `.terms`, `__hash__`/`__eq__` and `cache_info()`.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import threading
import time

PACKAGE = "qskein"

# (module, class or None, attribute names, metric name)
LAYERS = [
    ("scalars", "Scalar", ("__mul__", "__rmul__"), "scalars.mul"),
    ("scalars", "Scalar", ("__add__", "__radd__", "__sub__", "__rsub__"), "scalars.add"),
    ("scalars", "Scalar", ("inverse",), "scalars.inverse"),
    ("scalars", "Scalar", ("__pow__",), "scalars.pow"),
    ("scalars", "ScalarRing", ("zeta_pow", "q_pow"), "scalars.zeta_pow"),
    ("chebyshev", "Polynomial", ("__mul__", "__rmul__"), "chebyshev.poly_mul"),
    ("chebyshev", "Polynomial", ("__pow__",), "chebyshev.poly_pow"),
    ("chebyshev", "Polynomial", ("compose",), "chebyshev.compose"),
    ("chebyshev", None, ("chebyshev_reduce",), "chebyshev.reduce"),
    ("chebyshev", "ChebyshevForm", ("substitute",), "chebyshev.substitute"),
    ("oq_sl2", "OqElement", ("__mul__", "__rmul__"), "oq_sl2.mul"),
    ("oq_sl2", "OqElement", ("__add__", "__radd__", "__sub__", "__rsub__"), "oq_sl2.add"),
    ("oq_sl2", "OqAlgebra", ("normal_form",), "oq_sl2.normal_form"),
    ("oq_sl2", "OqAlgebra", ("power_product",), "oq_sl2.power_product"),
    ("oq_sl2", "OqAlgebra", ("independence_certificate",), "oq_sl2.independence_certificate"),
    ("oq_sl2", "OqAlgebra", ("localized_express",), "oq_sl2.localized_express"),
    ("oq_sl2", "OqAlgebra", ("express_in_spanning",), "oq_sl2.express_in_spanning"),
    ("quantum_torus", "QTElement", ("__mul__", "__rmul__"), "quantum_torus.mul"),
    ("quantum_torus", "QTElement", ("__add__", "__radd__", "__sub__"), "quantum_torus.add"),
    ("quantum_torus", "ZBasis", ("coordinates",), "quantum_torus.zbasis_coordinates"),
    ("quantum_torus", None, ("center_free_certificate",), "quantum_torus.center_free_certificate"),
    ("quantum_torus", None, ("frobenius_map",), "quantum_torus.frobenius_map"),
    ("quantum_torus", None, ("balanced_lattice_basis", "balanced_puncture_basis"), "quantum_torus.lattice"),
    ("torus_skein", None, ("a_basis_expand",), "torus_skein.a_basis_expand"),
    ("torus_skein", None, ("a_basis_build",), "torus_skein.a_basis_build"),
    ("torus_skein", None, ("s1s2_reduce",), "torus_skein.s1s2_reduce"),
    ("torus_skein", None, ("s1s2_frobenius_matrix",), "torus_skein.frobenius_matrix"),
    ("suites", None, ("run_checks",), "suites.run_checks"),
    ("cli", None, ("main",), "cli"),
]

SUITE_BUILDERS = ("bigon_suite", "qtorus_suite", "torus_skein_suite", "chebyshev_suite", "counts_suite")
CHEBYSHEV_FAMILIES = ("chebyshev_t", "chebyshev_s", "chebyshev_a")


def _term_pairs(left, right):
    """Sigma len(x.terms) * len(y.terms) over element-by-element products."""
    terms = getattr(right, "terms", None)
    return len(left.terms) * len(terms) if isinstance(terms, dict) else 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list]] = []
        self._pow_seen: set = set()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def pow_repeat(self, base, exponent):
        """1 if this (base, exponent) pair of `Scalar.__pow__` was seen before, else 0."""
        key = (base, exponent)
        with self._lock:
            if key in self._pow_seen:
                return 1
            self._pow_seen.add(key)
            return 0

    def wrap(self, name, fn, extra=None):
        """Return fn wrapped as one span of `name`; `extra(*args)` adds to a counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = self._state()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            rec = table.get(name)
            if rec is None:
                rec = table[name] = [0, 0.0, 0.0, 0]  # calls, self_s, total_s, extra
            rec[0] += 1
            if extra is not None:
                rec[3] += extra(*args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                rec[1] += spent - frame[1]
                rec[2] += spent
                if stack:
                    stack[-1][1] += spent

        return wrapper

    def totals(self) -> dict[str, list]:
        out: dict[str, list] = {}
        with self._lock:
            for table in self._tables:
                for name, rec in table.items():
                    acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                    for i, value in enumerate(rec):
                        acc[i] += value
        return out


def _replace_everywhere(old, new):
    """Point every module-level reference to `old` inside the package at `new`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install() -> Tracer:
    """Wrap the traced layers of the package in place; return the tracer."""
    tracer = Tracer()
    extras = {
        "oq_sl2.mul": _term_pairs,
        "quantum_torus.mul": _term_pairs,
        "scalars.pow": tracer.pow_repeat,
    }
    for mod_name, cls_name, attrs, name in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        owner = getattr(module, cls_name) if cls_name else None
        for attr in attrs:
            original = vars(owner)[attr] if owner is not None else getattr(module, attr)
            wrapped = tracer.wrap(name, original, extras.get(name))
            if owner is not None:
                setattr(owner, attr, wrapped)
            else:
                _replace_everywhere(original, wrapped)

    suites = importlib.import_module(f"{PACKAGE}.suites")
    for builder_name in SUITE_BUILDERS:
        builder = getattr(suites, builder_name)

        def traced_builder(*args, _builder=builder, **kwargs):
            return [(cid, tracer.wrap("suites.check", fn)) for cid, fn in _builder(*args, **kwargs)]

        _replace_everywhere(builder, traced_builder)
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Raw per-command sums; `summarise` turns sums of several commands into metrics."""
    chebyshev = importlib.import_module(f"{PACKAGE}.chebyshev")
    hits = lookups = 0
    for fam in CHEBYSHEV_FAMILIES:
        info = getattr(chebyshev, fam).cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    raw: dict[str, float] = {"chebyshev.family_cache.hits": hits, "chebyshev.family_cache.lookups": lookups}
    for name, (calls, self_s, total_s, extra) in tracer.totals().items():
        raw[f"{name}.calls"] = calls
        raw[f"{name}.self_s"] = self_s
        raw[f"{name}.total_s"] = total_s
        raw[f"{name}.extra"] = extra
    return raw


# per-layer metric -> unit
PER_LAYER = {
    "scalars.mul.calls": "count",
    "scalars.mul.self_s": "s",
    "scalars.add.calls": "count",
    "scalars.add.self_s": "s",
    "scalars.inverse.calls": "count",
    "scalars.inverse.self_s": "s",
    "scalars.pow.calls": "count",
    "scalars.pow.self_s": "s",
    "scalars.pow.repeat_share": "ratio",
    "scalars.zeta_pow.calls": "count",
    "chebyshev.poly_mul.calls": "count",
    "chebyshev.poly_mul.self_s": "s",
    "chebyshev.poly_pow.calls": "count",
    "chebyshev.compose.calls": "count",
    "chebyshev.compose.self_s": "s",
    "chebyshev.reduce.self_s": "s",
    "chebyshev.substitute.self_s": "s",
    "chebyshev.family_cache.hit_share": "ratio",
    "oq_sl2.mul.calls": "count",
    "oq_sl2.mul.self_s": "s",
    "oq_sl2.mul.term_pairs": "count",
    "oq_sl2.add.calls": "count",
    "oq_sl2.add.self_s": "s",
    "oq_sl2.normal_form.calls": "count",
    "oq_sl2.normal_form.self_s": "s",
    "oq_sl2.power_product.self_s": "s",
    "oq_sl2.independence_certificate.self_s": "s",
    "oq_sl2.localized_express.self_s": "s",
    "oq_sl2.express_in_spanning.self_s": "s",
    "quantum_torus.mul.calls": "count",
    "quantum_torus.mul.self_s": "s",
    "quantum_torus.mul.term_pairs": "count",
    "quantum_torus.add.calls": "count",
    "quantum_torus.add.self_s": "s",
    "quantum_torus.zbasis_coordinates.calls": "count",
    "quantum_torus.zbasis_coordinates.self_s": "s",
    "quantum_torus.center_free_certificate.self_s": "s",
    "quantum_torus.frobenius_map.self_s": "s",
    "quantum_torus.lattice.self_s": "s",
    "torus_skein.a_basis_expand.self_s": "s",
    "torus_skein.a_basis_build.self_s": "s",
    "torus_skein.s1s2_reduce.self_s": "s",
    "torus_skein.frobenius_matrix.self_s": "s",
    "suites.check.self_s": "s",
    "suites.run_checks.wall_s": "s",
    "suites.cpu_s": "s",
    "suites.cores_used": "cores",
    "cli.self_s": "s",
}


def summarise(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from raw values summed over the commands of a workload."""

    def get(key):
        return raw.get(key, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    derived = {
        "scalars.pow.repeat_share": share(get("scalars.pow.extra"), get("scalars.pow.calls")),
        "chebyshev.family_cache.hit_share": share(
            get("chebyshev.family_cache.hits"), get("chebyshev.family_cache.lookups")
        ),
        "oq_sl2.mul.term_pairs": get("oq_sl2.mul.extra"),
        "quantum_torus.mul.term_pairs": get("quantum_torus.mul.extra"),
        "suites.run_checks.wall_s": get("suites.run_checks.total_s"),
        "suites.cpu_s": get("suites.cpu_s"),
        "suites.cores_used": share(get("suites.cpu_s"), get("suites.run_checks.total_s")),
    }
    return {name: derived[name] if name in derived else get(name) for name in PER_LAYER}


def process_cpu_s() -> float:
    """CPU time of this process, all threads, and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
