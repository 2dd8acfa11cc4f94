"""Adjoint matrix representation of quadratic Hamiltonians.

A quadratic Hamiltonian H maps the span of the 2K basis operators
O = (x1..xK, p1..pK) into itself under commutation:

    [H, O_i] = sum_j  M[j][i] * O_j.

The 2K x 2K matrix M is the adjoint matrix of H.  Its eigenvalues are the
natural frequencies of the system and its eigenvectors are the coefficient
vectors of ladder operators.

M needs no operator products.  Write H = 1/2 O^T A O + const with A
symmetric: a term c O_a^2 puts 2c on A[a][a], and a term c O_a O_b with
a != b (normal ordering only moves the constant) puts c on A[a][b] and
A[b][a].  With [O_a, O_b] = i Omega[a][b], where Omega = [[0, I], [-I, 0]]
is the canonical symplectic form, [H, O_i] = i sum_j (A Omega)[j][i] O_j,
so M = i A Omega.

Matrices carry an exact complex-rational mirror alongside the float entries
whenever they were built from exact data, so downstream exact computations
(characteristic polynomial, eigenvalue verification) never touch floats.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotQuadraticError,
)
from .weyl import (
    ComplexRational,
    WeylPolynomial,
    ZERO,
    ONE,
    I,
    commutator,  # not called here; perfbench/trace.py wraps adjoint.commutator
    degree_decompose,
    is_hermitian,
)

__all__ = [
    "ComplexMatrix",
    "QuadraticHamiltonian",
    "validate_quadratic",
    "adjoint_matrix",
    "matrices_commute",
    "matrix_to_json",
    "COMMUTE_TOL",
]

# Absolute entrywise tolerance for the float path of matrices_commute.
COMMUTE_TOL = 1e-12

ExactRows = tuple[tuple[ComplexRational, ...], ...]


class ComplexMatrix:
    """Dense square complex matrix with an optional exact rational mirror.

    ``entries`` is a read-only complex128 array.  ``exact`` is either None or
    a tuple-of-tuples of ComplexRational agreeing with ``entries`` entry by
    entry; operations that can preserve exactness do so.
    """

    __slots__ = ("dim", "entries", "exact")

    def __init__(self, entries: np.ndarray, exact: ExactRows | None = None):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "dim", arr.shape[0])
        object.__setattr__(self, "entries", arr)
        if exact is not None:
            exact = tuple(tuple(row) for row in exact)
            if len(exact) != self.dim or any(len(r) != self.dim for r in exact):
                raise DimensionMismatchError("exact mirror shape mismatch")
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    @classmethod
    def from_exact(cls, rows: Iterable[Iterable[ComplexRational]]) -> "ComplexMatrix":
        exact = tuple(tuple(ComplexRational._coerce(v) for v in row) for row in rows)
        arr = np.array([[complex(v) for v in row] for row in exact], dtype=np.complex128)
        return cls(arr, exact)

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        exact = tuple(
            tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim))
        return cls(np.eye(dim, dtype=np.complex128), exact)

    def trace_exact(self) -> ComplexRational | None:
        if self.exact is None:
            return None
        total = ZERO
        for i in range(self.dim):
            total = total + self.exact[i][i]
        return total

    def norm_inf(self) -> float:
        """Max absolute row sum; the scale used by relative tolerances."""
        if self.dim == 0:
            return 0.0
        return float(np.max(np.sum(np.abs(self.entries), axis=1)))

    def __repr__(self):
        tag = "exact" if self.exact is not None else "float"
        return f"<ComplexMatrix dim={self.dim} {tag}>"


def exact_matmul(a: ExactRows, b: ExactRows) -> ExactRows:
    """Product of two exact square matrices of equal dimension."""
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
            for j in range(n)
        )
        for i in range(n)
    )


def exact_matvec(a: ExactRows,
                 v: Sequence[ComplexRational]) -> tuple[ComplexRational, ...]:
    """Product of an exact square matrix and an exact vector."""
    return tuple(sum((aij * vj for aij, vj in zip(row, v)), ZERO) for row in a)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """A validated Hermitian operator with terms of degree 2 and 0 only.

    ``energy_offset`` is the degree-0 coefficient; it shifts every energy by
    a constant and drops out of all commutators, so the adjoint matrix is
    built from the degree-2 part alone.
    """

    op: WeylPolynomial
    num_modes: int
    energy_offset: ComplexRational

    def __str__(self):
        return str(self.op)


def validate_quadratic(op: WeylPolynomial) -> QuadraticHamiltonian:
    """Check degrees and Hermiticity, returning the validated wrapper.

    Raises NotQuadraticError when any term has degree outside {0, 2} (the
    message names the offending monomials) and NotHermitianError when the
    operator differs from its dagger.
    """
    parts = degree_decompose(op)
    bad = sorted(deg for deg in parts if deg not in (0, 2))
    if bad:
        offending = tuple(
            mono.symbol_text()
            for deg in bad
            for mono, _ in parts[deg].sorted_terms()
        )
        raise NotQuadraticError(
            "operator has terms of degree "
            f"{', '.join(str(d) for d in bad)} (only 0 and 2 allowed): "
            + ", ".join(offending),
            offending,
        )
    if not is_hermitian(op):
        raise NotHermitianError("operator is not Hermitian: it differs from its dagger")
    return QuadraticHamiltonian(
        op=op, num_modes=op.num_modes, energy_offset=op.constant_term())


def adjoint_matrix(ham: QuadraticHamiltonian) -> ComplexMatrix:
    """Exact 2K x 2K matrix M = i A Omega, so [H, O_i] = sum_j M[j][i] O_j.

    A is read off the degree-2 terms of H; constants drop out, and a term of
    any other degree raises NotQuadraticError (a hand-built Hamiltonian may
    not have passed validate_quadratic).
    """
    k = ham.num_modes
    dim = 2 * k
    a = [[ZERO] * dim for _ in range(dim)]
    for mono, coeff in ham.op.terms.items():
        degree = mono.degree
        if degree == 0:
            continue
        if degree != 2:
            validate_quadratic(ham.op)  # raises NotQuadraticError naming the terms
        first, second = (
            flat for flat, exp in enumerate(mono.exps) for _ in range(exp))
        if first == second:
            a[first][first] = 2 * coeff
        else:
            a[first][second] = a[second][first] = coeff
    # (A Omega)[j][i] is -A[j][i+K] for an x column, +A[j][i-K] for a p column.
    return ComplexMatrix.from_exact(
        tuple(-I * row[i + k] if i < k else I * row[i - k] for i in range(dim))
        for row in a)


def matrices_commute(a: ComplexMatrix, b: ComplexMatrix,
                     tol: float = COMMUTE_TOL) -> bool:
    """Whether AB - BA vanishes: exactly when both mirrors exist, else to tol."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    if a.exact is not None and b.exact is not None:
        ab = exact_matmul(a.exact, b.exact)
        ba = exact_matmul(b.exact, a.exact)
        return all(
            ab[i][j] == ba[i][j]
            for i in range(a.dim) for j in range(a.dim)
        )
    resid = a.entries @ b.entries - b.entries @ a.entries
    return bool(np.max(np.abs(resid)) < tol) if resid.size else True


def matrix_to_json(m: ComplexMatrix) -> dict:
    """Schema: {"dim": n, "entries": [[re, im], ...] row-major}, plus
    "entries_exact" (numerator/denominator quadruples) when available."""
    doc: dict = {
        "dim": m.dim,
        "entries": [
            [float(z.real), float(z.imag)]
            for row in m.entries for z in row
        ],
    }
    if m.exact is not None:
        doc["entries_exact"] = [
            list(v.as_quad()) for row in m.exact for v in row
        ]
    return doc
