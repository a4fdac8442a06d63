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
  closed-form dimension and bound formulas.
"""

from .chebyshev import (
    ChebyshevForm,
    Polynomial,
    chebyshev_a,
    chebyshev_reduce,
    chebyshev_s,
    chebyshev_t,
)
from .dimensions import (
    Marked3ManifoldDescriptor,
    SurfaceDescriptor,
    euler_characteristic,
    lambda_bounds,
    localized_dimension,
    module_bound,
    r_of_surface,
    spanning_count_formula,
)
from .oq_sl2 import (
    OqAlgebra,
    OqElement,
    basis_box,
    is_pbw_index,
    leading_index,
    spanning_set,
    spanning_wing,
)
from .quantum_torus import (
    QTElement,
    QuantumTorus,
    Triangulation,
    ZBasis,
    balanced_check,
    balanced_lattice_basis,
    balanced_puncture_basis,
    center_free_certificate,
    central_puncture_element,
    central_puncture_exponent,
    exchange_matrix,
    four_punctured_sphere,
    frobenius_map,
    is_central,
    once_punctured_torus,
    qt_deg,
)
from .scalars import Scalar, ScalarRing
from .torus_skein import (
    S1S2Element,
    a_basis_build,
    a_basis_expand,
    s1s2_frobenius_matrix,
    s1s2_reduce,
)

__all__ = [
    "ChebyshevForm",
    "Polynomial",
    "chebyshev_a",
    "chebyshev_reduce",
    "chebyshev_s",
    "chebyshev_t",
    "Marked3ManifoldDescriptor",
    "SurfaceDescriptor",
    "euler_characteristic",
    "lambda_bounds",
    "localized_dimension",
    "module_bound",
    "r_of_surface",
    "spanning_count_formula",
    "OqAlgebra",
    "OqElement",
    "basis_box",
    "is_pbw_index",
    "leading_index",
    "spanning_set",
    "spanning_wing",
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
    "Scalar",
    "ScalarRing",
    "S1S2Element",
    "a_basis_build",
    "a_basis_expand",
    "s1s2_frobenius_matrix",
    "s1s2_reduce",
]

__version__ = "0.1.0"
