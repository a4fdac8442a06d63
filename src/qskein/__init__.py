"""Exact-arithmetic calculators for quantum algebras at odd roots of unity.

The package has five mathematical layers over a shared helper module, and a
command line on top:

- linear: the exact helpers the layers share: the input rules, sparse
  linear combinations, dense convolution and integer elimination.
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

A name is imported from the module that defines it, for example
``from qskein.oq_sl2 import OqAlgebra``; ``import qskein`` loads no layer.
"""

__version__ = "0.1.0"
