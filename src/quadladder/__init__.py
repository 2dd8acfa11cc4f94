"""Exact ladder-operator analysis of quadratic quantum Hamiltonians.

The package represents operators as polynomials in the Weyl algebra of K
position/momentum pairs, computes the adjoint matrix a quadratic Hamiltonian
induces on the linear basis (x1..xK, p1..pK), extracts natural frequencies
and ladder operators from that matrix, and applies the ladders symbolically
to Gaussian-polynomial wavefunctions to build eigenstate families.
"""

from .adjoint import (
    ComplexMatrix,
    QuadraticHamiltonian,
    adjoint_matrix,
    eigen_residual,
    matrices_commute,
    matrix_to_json,
    validate_quadratic,
)
from .bateman import (
    BatemanParams,
    build_hd,
    dimensionless_b,
    split_h0_h1,
    vacuum_functions,
)
from .dsl import (
    HamiltonianExpr,
    infer_num_modes,
    lower,
    parse_hamiltonian,
    parse_to_polynomial,
    render,
)
from .errors import (
    AliasConflictError,
    DefectiveSpectrumError,
    DimensionMismatchError,
    DivergentInputError,
    NotHermitianError,
    NotQuadraticError,
    NumericFailureError,
    ParseError,
    QuadladderError,
    ValidationError,
    VerificationError,
)
from .ladders import (
    LADDER_RESIDUAL_TOL,
    PAIRING_TOL,
    CommutatorTable,
    LadderOperator,
    build_ladders,
    commutator_table,
    ladders_to_json,
)
from .spectral import (
    NaturalFrequency,
    SpectralResult,
    characteristic_polynomial,
    eigen_decompose,
    roots,
    spectral_to_json,
)
from .wavefn import (
    DIVERGENT,
    GaussianPolyFunction,
    GaussianPolySum,
    SpectrumEntry,
    annihilation_check,
    apply_operator,
    eigencheck,
    function_to_json,
    hermiticity_witness,
    inner_product,
    is_square_integrable,
    ladder_spectrum,
    spectrum_to_json,
)
from .weyl import (
    ComplexRational,
    WeylPolynomial,
    commutator,
    dagger,
    degree_decompose,
    is_hermitian,
    multiply,
)

__version__ = "0.1.0"

__all__ = [
    "AliasConflictError",
    "BatemanParams",
    "CommutatorTable",
    "ComplexMatrix",
    "ComplexRational",
    "DIVERGENT",
    "DefectiveSpectrumError",
    "DimensionMismatchError",
    "DivergentInputError",
    "GaussianPolyFunction",
    "GaussianPolySum",
    "HamiltonianExpr",
    "LADDER_RESIDUAL_TOL",
    "LadderOperator",
    "NaturalFrequency",
    "NotHermitianError",
    "NotQuadraticError",
    "NumericFailureError",
    "PAIRING_TOL",
    "ParseError",
    "QuadladderError",
    "QuadraticHamiltonian",
    "SpectralResult",
    "SpectrumEntry",
    "ValidationError",
    "VerificationError",
    "WeylPolynomial",
    "adjoint_matrix",
    "annihilation_check",
    "apply_operator",
    "build_hd",
    "build_ladders",
    "characteristic_polynomial",
    "commutator",
    "commutator_table",
    "dagger",
    "degree_decompose",
    "dimensionless_b",
    "eigen_decompose",
    "eigen_residual",
    "eigencheck",
    "function_to_json",
    "hermiticity_witness",
    "infer_num_modes",
    "inner_product",
    "is_hermitian",
    "is_square_integrable",
    "ladder_spectrum",
    "ladders_to_json",
    "lower",
    "matrices_commute",
    "matrix_to_json",
    "multiply",
    "parse_hamiltonian",
    "parse_to_polynomial",
    "render",
    "roots",
    "spectral_to_json",
    "spectrum_to_json",
    "split_h0_h1",
    "vacuum_functions",
    "validate_quadratic",
]
