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

Every matrix is exact: its rows are Gaussian rationals, so downstream
exact computations (characteristic polynomial, eigenvalue verification)
never touch floats.  They run on one integer form per matrix, B = d*M with d
the lcm of the denominators, whose Gaussian-integer entries need no gcd per
operation.  The same rows as Python complex numbers serve the float work on
irrational frequencies.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TypeVar

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotQuadraticError,
)
from .weyl import (
    ComplexRational,
    WeylPolynomial,
    ZERO,
    _common_denominator,
    _times_i,
    commutator,  # not called here; perfbench/trace.py wraps adjoint.commutator
    degree_decompose,
    is_hermitian,
    word_text,
)

__all__ = [
    "ComplexMatrix",
    "QuadraticHamiltonian",
    "validate_quadratic",
    "adjoint_matrix",
    "eigen_residual",
    "matrices_commute",
    "matrix_to_json",
]

IntegerRows = tuple[tuple[tuple[int, int, int], ...], ...]  # nonzero (column, re, im)


class ComplexMatrix:
    """Dense square matrix over the Gaussian rationals.

    ``exact`` holds the rows as tuples of ComplexRational; ``entries`` is the
    same matrix as tuples of Python complex, for float work.
    """

    __slots__ = ("dim", "entries", "exact", "_integer_form")

    def __init__(self, rows: Iterable[Iterable[ComplexRational]]):
        exact = tuple(tuple(v if type(v) is ComplexRational else ComplexRational._coerce(v)
                            for v in row) for row in rows)
        if any(v is NotImplemented for row in exact for v in row):
            raise TypeError("matrix entries must be ComplexRational, int or Fraction")
        dim = len(exact)
        if any(len(row) != dim for row in exact):
            raise DimensionMismatchError(
                f"matrix must be square, got row lengths {[len(r) for r in exact]}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(
            self, "entries", tuple(tuple(complex(v) for v in row) for row in exact))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    @property
    def integer_form(self) -> tuple[int, IntegerRows]:
        """(d, B): d the lcm of the denominators and B = d*M, each row of B as
        its nonzero entries (column, re, im) in Z[i]; built once, on first use."""
        if not hasattr(self, "_integer_form"):
            d, pairs = _common_denominator([v for row in self.exact for v in row])
            object.__setattr__(self, "_integer_form", (d, tuple(
                tuple((j, a, b) for j, (a, b) in enumerate(pairs[i:i + self.dim]) if a or b)
                for i in range(0, len(pairs), self.dim))))
        return self._integer_form

    def trace_exact(self) -> ComplexRational:
        return sum((self.exact[i][i] for i in range(self.dim)), ZERO)

    def norm_inf(self) -> float:
        """Max absolute row sum; the scale used by relative tolerances."""
        return max((sum(abs(z) for z in row) for row in self.entries), default=0.0)

    def __repr__(self):
        return f"<ComplexMatrix dim={self.dim}>"


Scalar = TypeVar("Scalar", ComplexRational, complex)


def integer_matvec(rows: IntegerRows, vec: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """B v for the rows of an integer form and a vector of Gaussian-integer pairs."""
    return [(sum(a * vec[j][0] - b * vec[j][1] for j, a, b in row),
             sum(a * vec[j][1] + b * vec[j][0] for j, a, b in row)) for row in rows]


def eigen_residual(rows: Sequence[Sequence[Scalar]], lam: Scalar,
                   vec: Sequence[Scalar]) -> list[Scalar]:
    """M v - lam v: exact over ``exact`` rows, in complex floats over ``entries``."""
    return [sum(mij * vj for mij, vj in zip(row, vec)) - lam * vi
            for row, vi in zip(rows, vec)]


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

    @cached_property
    def _matrix(self) -> ComplexMatrix:
        """The adjoint matrix, built on first use; see adjoint_matrix."""
        k = self.num_modes
        dim = 2 * k
        a = [[ZERO] * dim for _ in range(dim)]
        for mono, coeff in self.op.terms.items():
            degree = sum(mono)
            if degree == 0:
                continue
            if degree != 2:
                validate_quadratic(self.op)  # NotQuadraticError names the terms
            first, second = (
                flat for flat, exp in enumerate(mono) for _ in range(exp))
            if first == second:
                a[first][first] = 2 * coeff
            else:
                a[first][second] = a[second][first] = coeff
        # (A Omega)[j][i]: -A[j][i+K] for an x column, +A[j][i-K] for a p column
        return ComplexMatrix(
            tuple(_times_i(row[i + k], -1) if i < k else _times_i(row[i - k])
                  for i in range(dim))
            for row in a)


def validate_quadratic(op: WeylPolynomial) -> QuadraticHamiltonian:
    """Check degrees and Hermiticity, returning the validated wrapper.

    Raises NotQuadraticError when any term has degree outside {0, 2} (the
    message names the offending monomials) and NotHermitianError when the
    operator differs from its dagger.
    """
    bad = sorted({deg for deg in map(sum, op.terms) if deg != 2 and deg != 0})
    if bad:
        parts = degree_decompose(op)
        offending = tuple(
            word_text(mono, op.num_modes)
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
    not have passed validate_quadratic).  M is built once per Hamiltonian
    and shared by every caller.
    """
    return ham._matrix


def matrices_commute(a: ComplexMatrix, b: ComplexMatrix) -> bool:
    """Whether AB - BA vanishes, decided exactly: on the integer forms
    B_a = d_a A and B_b = d_b B, column by column as B_a (B_b e_j) = B_b (B_a e_j)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    (_, rows_a), (_, rows_b) = a.integer_form, b.integer_form
    zero = [(0, 0)] * a.dim
    return all(integer_matvec(rows_a, integer_matvec(rows_b, e))
               == integer_matvec(rows_b, integer_matvec(rows_a, e))
               for e in (zero[:j] + [(1, 0)] + zero[j + 1:] for j in range(a.dim)))


def matrix_to_json(m: ComplexMatrix) -> dict:
    """Schema: {"dim": n, "entries": [[re, im], ...] row-major,
    "entries_exact": numerator/denominator quadruples, row-major}."""
    return {
        "dim": m.dim,
        "entries": [[z.real, z.imag] for row in m.entries for z in row],
        "entries_exact": [list(v.as_quad()) for row in m.exact for v in row],
    }
