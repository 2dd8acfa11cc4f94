"""Ladder operators built from the eigenvectors of the adjoint matrix.

A coefficient vector c with M c = lambda c turns into the degree-1 operator
Z = sum_j c_j O_j satisfying [H, Z] = lambda Z, so Z ladders eigenfunctions
of H by lambda.  Construction normalizes each Z so its first nonzero
coefficient (in the x1..xK, p1..pK basis order) equals exactly 1, verifies
M c = lambda c, and checks that dagger(Z), whose coefficients are conj(c),
is an eigenvector of M at the paired frequency -conj(lambda).

Degree-1 operators need no operator products: [H, Z] has coefficients M c,
and [Z_a, Z_b] is the scalar i sum_m (a_xm b_pm - a_pm b_xm) given by the
canonical symplectic form.  ``ladder_shift_check`` recomputes [H, Z] with
the Weyl product as an independent check.
"""

from dataclasses import dataclass

from .adjoint import ComplexMatrix, QuadraticHamiltonian, adjoint_matrix, eigen_residual
from .errors import (
    DefectiveSpectrumError,
    DimensionMismatchError,
    VerificationError,
)
from .spectral import NaturalFrequency, SpectralResult
from .weyl import I, BasisIndex, ComplexRational, WeylPolynomial, ZERO, _ratio, commutator

__all__ = [
    "LadderOperator",
    "CommutatorTable",
    "build_ladders",
    "commutator_table",
    "ladder_shift_check",
    "ladders_to_json",
    "LADDER_RESIDUAL_TOL",
]

LADDER_RESIDUAL_TOL = 1e-9
PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class LadderOperator:
    """A degree-1 operator with [H, Z] = lambda Z.

    ``lam_exact`` is set when the whole construction stayed exact, in which
    case the commutation relation was verified with zero residual.
    """

    z: WeylPolynomial
    lam: complex
    lam_exact: ComplexRational | None
    frequency: NaturalFrequency

    def __str__(self):
        return str(self.z)


@dataclass(frozen=True)
class CommutatorTable:
    """All pairwise ladder commutators; entries are exact scalars.

    entries[i][j] is the coefficient of the identity in [Z_i, Z_j].  The
    table is antisymmetric by construction.
    """

    entries: tuple[tuple[ComplexRational, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> ComplexRational:
        i, j = ij
        return self.entries[i][j]


def _normalize_exact(vec: tuple[ComplexRational, ...]) -> list[ComplexRational]:
    lead = next((c for c in vec if c), None)
    if lead is None:
        raise VerificationError("eigenvector is identically zero")
    return [c / lead for c in vec]


def _normalize_float(vec: tuple[complex, ...]) -> list[complex]:
    at = next((i for i, c in enumerate(vec) if abs(c) > 1e-10), None)
    if at is None:
        raise VerificationError("eigenvector is numerically zero")
    lead = vec[at]
    out = [c / lead for c in vec]
    out[at] = 1 + 0j  # lead / lead can leave a rounding-sized imaginary part
    return out


def _worst(residual: list) -> float:
    return max(abs(complex(r)) for r in residual)


def build_ladders(ham: QuadraticHamiltonian,
                  spectrum: SpectralResult) -> list[LadderOperator]:
    """One ladder per eigenvector, ordered by (Re lambda, Im lambda).

    Raises DefectiveSpectrumError when the spectrum is defective (a complete
    ladder set does not exist then).  Exact eigen-data is verified exactly;
    float eigen-data must satisfy the commutation relation, evaluated in
    complex floats, with coefficient residual below LADDER_RESIDUAL_TOL.
    """
    if spectrum.defective:
        raise DefectiveSpectrumError(
            "spectrum is defective (an eigenvalue has too few eigenvectors); "
            "ladder operators are not supported for defective spectra")
    num_modes = ham.num_modes
    if len(spectrum.char_poly) - 1 != 2 * num_modes:
        raise DimensionMismatchError(
            "spectral result dimension does not match the Hamiltonian")
    m = adjoint_matrix(ham)  # closed form: cheap enough to rebuild
    ladders: list[LadderOperator] = []
    for freq in spectrum.frequencies:
        for k in range(freq.geometric_multiplicity):
            exact_vec = freq.eigenvectors_exact[k]
            lam_exact = freq.lam_exact if exact_vec is not None else None
            if lam_exact is not None:
                coeffs = _normalize_exact(exact_vec)
                residual = eigen_residual(m.exact, lam_exact, coeffs)
                if any(residual):
                    raise VerificationError(
                        f"exact ladder at lambda={lam_exact} fails its "
                        f"commutation relation; residual "
                        f"{WeylPolynomial.from_linear(residual, num_modes)}")
            else:
                floats = _normalize_float(freq.eigenvectors[k])
                worst = _worst(eigen_residual(m.entries, freq.lam, floats))
                if worst >= LADDER_RESIDUAL_TOL:
                    raise VerificationError(
                        f"ladder at lambda={freq.lam} fails its commutation "
                        f"relation with residual {worst:.3e}",
                        (worst,),
                    )
                coeffs = [ComplexRational.from_complex(c) for c in floats]
            ladders.append(LadderOperator(
                z=WeylPolynomial.from_linear(coeffs, num_modes), lam=freq.lam,
                lam_exact=lam_exact, frequency=freq))

    _check_dagger_pairing(ladders, m)
    return ladders


def _check_dagger_pairing(ladders: list[LadderOperator], m: ComplexMatrix) -> None:
    """dagger(Z) at lambda, with coefficients conj(c), must be an eigenvector
    of M at -conj(lambda): exactly for exact ladders, else in complex floats
    to LADDER_RESIDUAL_TOL."""
    for lad in ladders:
        target = -lad.lam.conjugate()
        if not any(abs(o.lam - target) < PAIRING_TOL for o in ladders):
            raise VerificationError(
                f"no partner frequency found for lambda={lad.lam}")
        exact = lad.lam_exact is not None
        coeffs = lad.z.linear_coefficients()
        residual = (
            eigen_residual(m.exact, -lad.lam_exact.conjugate(),
                           [c.conjugate() for c in coeffs]) if exact
            else eigen_residual(m.entries, target,
                                [complex(c).conjugate() for c in coeffs]))
        worst = _worst(residual)
        if any(residual) if exact else worst >= LADDER_RESIDUAL_TOL:
            raise VerificationError(
                f"dagger of ladder at lambda={lad.lam} is not in the paired "
                f"eigenspace (residual {worst:.3e})",
                (worst,),
            )


def commutator_table(ladders: list[LadderOperator]) -> CommutatorTable:
    """Exact pairwise commutators [Z_a, Z_b] = i sum_m (a_xm b_pm - a_pm b_xm).

    Degree-1 operators always commute to scalars, given by the canonical
    symplectic form on their coefficient vectors.
    """
    vecs = [lad.z.linear_coefficients() for lad in ladders]
    k = len(vecs[0]) // 2 if vecs else 0
    return CommutatorTable(entries=tuple(
        tuple(I * sum((a[m] * b[k + m] - a[k + m] * b[m] for m in range(k)), ZERO)
              for b in vecs)
        for a in vecs))


def ladder_shift_check(ham: QuadraticHamiltonian,
                       ladder: LadderOperator) -> ComplexRational | complex:
    """Recompute [H, Z] and return the proportionality scalar.

    Exact ladders give an exact scalar equal to lam_exact; float ladders get
    a coefficientwise comparison at the construction residual tolerance.
    Raises VerificationError when [H, Z] is not proportional to Z.
    """
    z = ladder.z
    if z.is_zero:
        raise VerificationError("ladder operator is zero")
    comm = commutator(ham.op, z)
    if ladder.lam_exact is not None:
        ratio = _ratio(comm.terms, z.terms)
        if ratio is None:
            raise VerificationError(
                f"[H, Z] is not exactly proportional to Z for lambda={ladder.lam_exact}")
        return ratio
    zc = {m: complex(c) for m, c in z.terms.items()}
    lead = max(zc, key=lambda m: abs(zc[m]))
    lam = complex(comm.coefficient(lead)) / zc[lead]
    worst = 0.0
    for mono in set(zc) | set(comm.terms):
        got = complex(comm.coefficient(mono))
        want = lam * zc.get(mono, 0.0)
        worst = max(worst, abs(got - want))
    if worst >= LADDER_RESIDUAL_TOL:
        raise VerificationError(
            f"[H, Z] deviates from lambda*Z by {worst:.3e}", (worst,))
    return lam


def _float_ladder_text(coefficients: list[complex], num_modes: int) -> str:
    """Readable form of a ladder with float coefficients, in 10 digits, so
    that no binary fraction passes for an exact rational."""
    parts = []
    for flat, c in enumerate(coefficients):
        if c:
            term = (f"{c.real:.10g}" if not c.imag else f"{c.imag:.10g}i" if not c.real
                    else f"({c.real:.10g}{c.imag:+.10g}i)")
            name = BasisIndex.from_flat(flat, num_modes).symbol(num_modes)
            parts.append(f"{term}*{name}")
    return " + ".join(parts) or "0"


def ladders_to_json(ladders: list[LadderOperator],
                    table: CommutatorTable | None = None) -> dict:
    """Schema: per-ladder float/exact lambda, coefficient vectors over the
    flat basis, text; plus the exact commutator table.  Exact forms are null
    once exactness was lost: a ladder's coefficients when its lambda is not
    exact, the whole table when any ladder's lambda is not.  The text is the
    exact operator for an exact ladder and 10-digit floats otherwise."""
    doc: dict = {
        "ladders": [
            {
                "lambda": [lad.lam.real, lad.lam.imag],
                "lambda_exact": (
                    list(lad.lam_exact.as_quad())
                    if lad.lam_exact is not None else None),
                "coefficients": [
                    [complex(c).real, complex(c).imag]
                    for c in lad.z.linear_coefficients()
                ],
                "coefficients_exact": (
                    [list(c.as_quad()) for c in lad.z.linear_coefficients()]
                    if lad.lam_exact is not None else None),
                "text": (
                    str(lad.z) if lad.lam_exact is not None
                    else _float_ladder_text(
                        [complex(c) for c in lad.z.linear_coefficients()],
                        lad.z.num_modes)),
            }
            for lad in ladders
        ],
    }
    if table is not None:
        doc["commutator_table"] = (
            [[list(v.as_quad()) for v in row] for row in table.entries]
            if all(lad.lam_exact is not None for lad in ladders) else None)
    return doc
