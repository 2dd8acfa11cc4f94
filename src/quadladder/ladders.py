"""Ladder operators built from the eigenvectors of the adjoint matrix.

A coefficient vector c with M c = lambda c turns into the degree-1 operator
Z = sum_j c_j O_j satisfying [H, Z] = lambda Z, so Z ladders eigenfunctions
of H by lambda.  A ladder is stored as its coefficient vector c over the
x1..xK, p1..pK basis, scaled so its first nonzero entry equals exactly 1,
and M c = lambda c is verified once per ladder.  Dagger pairing needs no
second check: for Hermitian H, M = i A Omega with A real, so conj(M) = -M
(checked exactly once per matrix) and M conj(c) + conj(lambda) conj(c) =
-conj(M c - lambda c).  dagger(Z), with coefficients conj(c), is therefore
a ladder at -conj(lambda) whenever Z is one at lambda.

Degree-1 operators need no operator products: [H, Z] has coefficients M c,
and [Z_a, Z_b] is the scalar i sum_m (a_xm b_pm - a_pm b_xm) given by the
canonical symplectic form.  Both run on integers: M c = lambda c is checked
on M's integer form, and the form on the numerators of the coefficients.
That one check certifies [H, Z] = lambda Z for ``build_ladders`` and for the
raisers that ``wavefn.ladder_spectrum`` is handed.
"""

from dataclasses import dataclass
from functools import cached_property

from .adjoint import QuadraticHamiltonian, adjoint_matrix, eigen_residual, integer_matvec
from .errors import (
    DefectiveSpectrumError,
    DimensionMismatchError,
    VerificationError,
)
from .spectral import NaturalFrequency, SpectralResult
from .weyl import (
    ComplexRational,
    WeylPolynomial,
    ZERO,
    _common_denominator,
    _reduced,
    commutator,  # not called here; perfbench/trace.py wraps ladders.commutator
    render_terms,
    symbol,
)

__all__ = [
    "LadderOperator",
    "CommutatorTable",
    "build_ladders",
    "commutator_table",
    "ladders_to_json",
    "LADDER_RESIDUAL_TOL",
]

LADDER_RESIDUAL_TOL = 1e-9
PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class LadderOperator:
    """A degree-1 operator Z = sum_j c_j O_j with [H, Z] = lambda Z.

    ``coefficients`` is c over the flat basis x1..xK, p1..pK.  ``lam_exact``
    is set when the whole construction stayed exact, in which case the
    commutation relation was verified with zero residual.
    """

    coefficients: tuple[ComplexRational, ...]
    lam: complex
    lam_exact: ComplexRational | None
    frequency: NaturalFrequency

    @property
    def z(self) -> WeylPolynomial:
        """Z as a Weyl polynomial, for operator products."""
        return WeylPolynomial.from_linear(self.coefficients, len(self.coefficients) // 2)

    @cached_property
    def text(self) -> str:
        """The one ladder text, rendered once: the exact operator, equal to
        str(self.z), when lambda is exact, else 10-digit floats."""
        k = len(self.coefficients) // 2
        if self.lam_exact is None:
            return _float_ladder_text([complex(c) for c in self.coefficients], k)
        return render_terms((c, symbol(flat, k))
                            for flat, c in enumerate(self.coefficients) if c)

    def __str__(self):
        return self.text


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


def _shifts_by(ham: QuadraticHamiltonian, coefficients, lam: ComplexRational) -> bool:
    """Whether [H, Z] = lam Z exactly for Z = sum_j c_j O_j: M c = lam c,
    decided as L B n = d g n in Gaussian integers for the integer form (d, B)
    of H's adjoint matrix, lam = g/L and n the numerators of c.  The caller
    checks that c has 2K entries, since the products are zipped."""
    d, rows = adjoint_matrix(ham).integer_form
    den, ((gx, gy),) = _common_denominator([lam])
    gx, gy, num = d * gx, d * gy, _common_denominator(coefficients)[1]
    return all(den * bx == gx * x - gy * y and den * by == gx * y + gy * x
               for (bx, by), (x, y) in zip(integer_matvec(rows, num), num))


def build_ladders(ham: QuadraticHamiltonian,
                  spectrum: SpectralResult) -> list[LadderOperator]:
    """One ladder per eigenvector, ordered by (Re lambda, Im lambda).

    Raises DefectiveSpectrumError when the spectrum is defective (a complete
    ladder set does not exist then).  Each eigenvector is scaled so that its
    first nonzero coefficient (float: the first above 1e-10) is 1.  Exact
    eigen-data is verified exactly, as L B n = d g n in Gaussian integers for
    M's integer form (d, B), lambda = g/L and n the numerators of c; float
    eigen-data must satisfy M c =
    lambda c in complex floats to LADDER_RESIDUAL_TOL relative to
    max(1, ||M||_inf) max|c|, a bound that holds however c is scaled (a mode
    localized away from x1 has huge c).
    Raises VerificationError when M is not purely imaginary (H is not
    Hermitian, so dagger(Z) need not be a ladder) or when some lambda has no
    partner frequency -conj(lambda) within PAIRING_TOL.
    """
    if spectrum.defective:
        raise DefectiveSpectrumError(
            "spectrum is defective (an eigenvalue has too few eigenvectors); "
            "ladder operators are not supported for defective spectra")
    num_modes = ham.num_modes
    if len(spectrum.char_poly) - 1 != 2 * num_modes:
        raise DimensionMismatchError(
            "spectral result dimension does not match the Hamiltonian")
    m = adjoint_matrix(ham)  # built once per Hamiltonian, with its integer form
    if not all(v.is_imaginary for row in m.exact for v in row):
        raise VerificationError(
            "adjoint matrix is not purely imaginary: the Hamiltonian is not "
            "Hermitian, so the dagger of a ladder need not be a ladder")
    ladders: list[LadderOperator] = []
    norm = 0.0  # max(1, ||M||_inf), computed at the first float ladder
    for freq in spectrum.frequencies:
        for k in range(freq.geometric_multiplicity):
            exact_vec = freq.eigenvectors_exact[k]
            lam_exact = freq.lam_exact if exact_vec is not None else None
            if lam_exact is not None:
                coeffs = _normalize_exact(exact_vec)
                if not _shifts_by(ham, coeffs, lam_exact):
                    residual = eigen_residual(m.exact, lam_exact, coeffs)
                    raise VerificationError(
                        f"exact ladder at lambda={lam_exact} fails its "
                        f"commutation relation; residual "
                        f"{WeylPolynomial.from_linear(residual, num_modes)}")
            else:
                floats = _normalize_float(freq.eigenvectors[k])
                norm = norm or max(1.0, m.norm_inf())
                worst = (max(map(abs, eigen_residual(m.entries, freq.lam, floats)))
                         / (norm * max(abs(c) for c in floats)))
                if worst >= LADDER_RESIDUAL_TOL:
                    raise VerificationError(
                        f"ladder at lambda={freq.lam} fails its commutation "
                        f"relation with residual {worst:.3e}",
                        (worst,),
                    )
                coeffs = [ComplexRational.from_complex(c) for c in floats]
            ladders.append(LadderOperator(
                coefficients=tuple(coeffs), lam=freq.lam,
                lam_exact=lam_exact, frequency=freq))

    for lad in ladders:
        target = -lad.lam.conjugate()
        if not any(abs(o.lam - target) < PAIRING_TOL for o in ladders):
            raise VerificationError(
                f"no partner frequency found for lambda={lad.lam}")
    return ladders


def commutator_table(ladders: list[LadderOperator]) -> CommutatorTable:
    """Exact pairwise commutators [Z_a, Z_b] = i sum_m (a_xm b_pm - a_pm b_xm).

    Degree-1 operators always commute to scalars.  For ladders from
    build_ladders, whose exact check makes [H, Z] = lambda Z hold exactly,
    the Jacobi identity gives [H, [Z_a, Z_b]] = (lambda_a + lambda_b)
    [Z_a, Z_b]; a scalar commutes with H, so the entry is 0 wherever the
    exact lambda_a + lambda_b is not.  The other entries (partners, and pairs
    with an inexact lambda) come from the canonical symplectic form on the
    integer numerators of the coefficients, one reduction per entry.
    """
    n = len(ladders)
    k = len(ladders[0].coefficients) // 2 if ladders else 0
    nums = [_common_denominator(lad.coefficients) for lad in ladders]
    entries = [[ZERO] * n for _ in range(n)]
    for i, (lad_a, (da, va)) in enumerate(zip(ladders, nums)):
        for j in range(i + 1, n):
            lam_a, lam_b = lad_a.lam_exact, ladders[j].lam_exact
            if lam_a is not None and lam_b is not None and lam_a != -lam_b:
                continue
            (db, vb), re, im = nums[j], 0, 0
            for (ax, ay), (px, py), (bx, by), (qx, qy) in zip(va[:k], va[k:],
                                                              vb[:k], vb[k:]):
                re += ax * qx - ay * qy - px * bx + py * by
                im += ax * qy + ay * qx - px * by - py * bx
            entries[i][j] = _reduced(-im, re, da * db)  # i (re + i im)/(da db)
            entries[j][i] = -entries[i][j]
    return CommutatorTable(entries=tuple(map(tuple, entries)))


def _float_ladder_text(coefficients: list[complex], num_modes: int) -> str:
    """Readable form of a ladder with float coefficients, in 10 digits, so
    that no binary fraction passes for an exact rational.  It follows the
    exact text's rules: a coefficient that reads 1 writes no 1*, a one-part
    coefficient carries its sign, and a mixed one is parenthesized after +."""
    text = ""
    for flat, c in enumerate(coefficients):
        if not c:
            continue
        if c.real and c.imag:
            sign, body = "+", f"({c.real:.10g}{c.imag:+.10g}i)*"
        else:
            v = c.real or c.imag
            sign, mag = "-" if v < 0 else "+", f"{abs(v):.10g}"
            mag = "" if mag == "1" else mag  # a unit in 10 digits
            body = f"{mag}i*" if c.imag else f"{mag}*" if mag else ""
        text += (f" {sign} " if text else "" if sign == "+" else "-") + body + symbol(flat, num_modes)
    return text or "0"


def ladders_to_json(ladders: list[LadderOperator],
                    table: CommutatorTable | None) -> dict:
    """Schema: per-ladder float/exact lambda, coefficient vectors over the
    flat basis and text, plus the exact commutator table.  Exact forms are
    null once exactness was lost: a ladder's coefficients when its lambda is
    not exact, the table when ``table`` is None or any lambda is not exact."""
    return {
        "ladders": [
            {
                "lambda": [lad.lam.real, lad.lam.imag],
                "lambda_exact": (
                    list(lad.lam_exact.as_quad())
                    if lad.lam_exact is not None else None),
                "coefficients": [
                    [complex(c).real, complex(c).imag] for c in lad.coefficients
                ],
                "coefficients_exact": (
                    [list(c.as_quad()) for c in lad.coefficients]
                    if lad.lam_exact is not None else None),
                "text": lad.text,
            }
            for lad in ladders
        ],
        "commutator_table": (
            None if table is None or any(lad.lam_exact is None for lad in ladders)
            else [[list(v.as_quad()) for v in row] for row in table.entries]),
    }
