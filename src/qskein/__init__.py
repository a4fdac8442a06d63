"""Exact-arithmetic calculators for quantum algebras at odd roots of unity.

The package has five mathematical layers and a command line on top:

- scalars: the cyclotomic field of an odd root of unity, plus a generic
  Laurent-polynomial mode for statements that hold before specialising.
- chebyshev: integer Chebyshev-style recurrences and reduction of
  polynomials over powers of T_N.
- oq_sl2: the quantized coordinate ring of SL2 with a rewriting engine,
  a structured product, degree certificates, and the Frobenius
  subalgebra machinery for basis and spanning arguments.
- quantum_torus: triangulation-indexed quantum tori, balanced lattices,
  central puncture monomials, and the exponent-multiplying embedding.
- torus_skein / dimensions: solid torus and S^1 x S^2 modules, and the
  closed-form dimension and bound formulas with the bigon's index box and
  spanning set that they count.

The command line (cli) runs the checks of the suites package, one module
per suite.

The names below are re-exported from their layers and load on first use:
``import qskein`` imports no layer, and ``from qskein import OqAlgebra``
imports ``qskein.oq_sl2`` (with what it needs) and nothing else.
"""

import importlib

_EXPORTS = {
    "chebyshev": (
        "ChebyshevForm",
        "Polynomial",
        "chebyshev_a",
        "chebyshev_reduce",
        "chebyshev_s",
        "chebyshev_t",
    ),
    "dimensions": (
        "Marked3ManifoldDescriptor",
        "SurfaceDescriptor",
        "basis_box",
        "euler_characteristic",
        "iter_basis_box",
        "iter_spanning_set",
        "iter_spanning_wing",
        "lambda_bounds",
        "localized_dimension",
        "module_bound",
        "r_of_surface",
        "spanning_count_formula",
        "spanning_set",
        "spanning_wing",
    ),
    "oq_sl2": (
        "OqAlgebra",
        "OqElement",
        "is_pbw_index",
        "leading_index",
    ),
    "quantum_torus": (
        "QTElement",
        "QuantumTorus",
        "Triangulation",
        "ZBasis",
        "balanced_check",
        "balanced_lattice_basis",
        "balanced_puncture_basis",
        "center_free_certificate",
        "central_puncture_element",
        "central_puncture_exponent",
        "exchange_matrix",
        "four_punctured_sphere",
        "frobenius_map",
        "is_central",
        "once_punctured_torus",
        "qt_deg",
    ),
    "scalars": ("Scalar", "ScalarRing"),
    "torus_skein": (
        "S1S2Element",
        "a_basis_build",
        "a_basis_expand",
        "s1s2_frobenius_matrix",
        "s1s2_reduce",
    ),
}
"""Layer module -> the public names it defines."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Look a re-exported name up in its layer, importing the layer on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
