"""Natural frequencies of an adjoint matrix.

The pipeline runs in three layers of decreasing exactness:

1. The characteristic polynomial det(M - lambda*I) is computed exactly over
   complex rationals with the Faddeev-LeVerrier trace recurrence.
2. The exact polynomial is split into square-free factors (Yun's algorithm,
   exact gcds), which pins down every algebraic multiplicity before any
   floating-point work; the factors have only simple roots, so the
   Durand-Kerner simultaneous iteration that follows converges at full float
   accuracy even for repeated eigenvalues of the original matrix.
3. Eigenvectors come from float Gaussian elimination on M - lambda*I, and a
   rational reconstruction step tries to lift each root and vector back to
   exact values, accepting them only when exact back-substitution verifies.

Everything is deterministic: fixed seed circle for the iteration, fixed
pivoting and normalization rules, fixed ordering of results by (Re, Im).
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .adjoint import ComplexMatrix, eigen_residual
from .errors import NumericFailureError
from .weyl import ComplexRational, ONE, ZERO

__all__ = [
    "NaturalFrequency",
    "SpectralResult",
    "characteristic_polynomial",
    "roots",
    "eigen_decompose",
    "spectral_to_json",
    "CLUSTER_TOL",
    "RANK_TOL",
]

# Default tolerances; the CLI exposes overrides for both.
CLUSTER_TOL = 1e-8   # relative distance under which roots merge
RANK_TOL = 1e-10     # relative pivot threshold for null-space extraction

ROOT_RESIDUAL_TOL = 1e-9   # relative bound on |p(root)| for accepted roots
MAX_SWEEPS = 500           # Durand-Kerner iteration cap
RECONSTRUCT_DEN_CAP = 10**6
# A null vector is normalized at its first entry whose modulus is within this
# relative gap of the largest, so float rounding cannot break exact ties.
PEAK_TIE_TOL = 1e-9

Poly = list[ComplexRational]  # coefficients, ascending degree


# ---------------------------------------------------------------------------
# exact univariate polynomial arithmetic
# ---------------------------------------------------------------------------

def _ptrim(p: Poly) -> Poly:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def _pdeg(p: Poly) -> int:
    return len(p) - 1


def _psub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        ak = a[k] if k < len(a) else ZERO
        bk = b[k] if k < len(b) else ZERO
        out.append(ak - bk)
    return _ptrim(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _ptrim(out)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    b = _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    deg_b = _pdeg(b)
    lead = b[-1]
    quot = [ZERO] * max(0, len(a) - deg_b)
    for k in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[k]
        if not c:
            continue
        q = c / lead
        quot[k - deg_b] = q
        for j in range(deg_b + 1):
            rem[k - deg_b + j] = rem[k - deg_b + j] - q * b[j]
    return _ptrim(quot), _ptrim(rem)


def _pmonic(p: Poly) -> Poly:
    p = _ptrim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the complex rationals."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def _pderiv(p: Poly) -> Poly:
    return _ptrim([p[k] * k for k in range(1, len(p))])


def poly_eval(p: Poly, z: ComplexRational) -> ComplexRational:
    """Exact Horner evaluation."""
    acc = ZERO
    for c in reversed(p):
        acc = acc * z + c
    return acc


def _peval_complex(p, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + complex(c)
    return acc


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: p ~ prod f_k^k with f_k square-free.

    The constant factor is dropped (only root structure matters here), and
    each returned factor is monic.
    """
    p = _pmonic(p)
    if _pdeg(p) < 1:
        return []
    dp = _pderiv(p)
    g = _pgcd(p, dp)
    if _pdeg(g) == 0:
        return [(p, 1)]
    b, _ = _pdivmod(p, g)
    c, _ = _pdivmod(dp, g)
    d = _psub(c, _pderiv(b))
    out: list[tuple[Poly, int]] = []
    k = 1
    while _pdeg(b) > 0:
        a = _pgcd(b, d)
        if _pdeg(a) > 0:
            out.append((_pmonic(a), k))
        b, _ = _pdivmod(b, a)
        c, _ = _pdivmod(d, a)
        d = _psub(c, _pderiv(b))
        k += 1
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def characteristic_polynomial(m: ComplexMatrix) -> Poly:
    """Coefficients of det(M - lambda*I), ascending, exact.

    Uses the Faddeev-LeVerrier recurrence, which needs only ring operations
    and divisions by small integers.
    """
    n = m.dim
    a = m.exact
    coeffs: list[ComplexRational] = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = [[ZERO] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        shift = coeffs[n - k + 1]
        mk = [
            [
                sum((a[i][t] * mk[t][j] for t in range(n)), ZERO)
                + (shift if i == j else ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]
        tr = ZERO
        for i in range(n):
            tr = tr + sum((a[i][t] * mk[t][i] for t in range(n)), ZERO)
        coeffs[n - k] = -tr / k
    sign = ONE if n % 2 == 0 else -ONE
    return [sign * c for c in coeffs]


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _durand_kerner(coeffs: list[complex]) -> list[complex]:
    """All roots of a monic polynomial with simple roots, simultaneously.

    Deterministic seeds on a circle of radius 1 + max|c_k| (a Cauchy bound),
    rotated off the axes so symmetric root sets do not stall the sweep.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0]]
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    z = [
        radius * cmath.exp(1j * (2.0 * cmath.pi * j / deg + 0.4))
        for j in range(deg)
    ]
    for _ in range(MAX_SWEEPS):
        max_step = 0.0
        for j in range(deg):
            num = _peval_complex(coeffs, z[j])
            den = 1.0 + 0j
            for k in range(deg):
                if k != j:
                    den *= z[j] - z[k]
            if den == 0:
                den = 1e-300
            step = num / den
            z[j] -= step
            max_step = max(max_step, abs(step))
        scale = max(1.0, max(abs(w) for w in z))
        if max_step <= 1e-14 * scale:
            return z
    residuals = tuple(abs(_peval_complex(coeffs, w)) for w in z)
    raise NumericFailureError(
        f"root iteration did not converge within {MAX_SWEEPS} sweeps",
        residuals,
    )


def _poly_scale_at(p: Poly, z: complex) -> float:
    """Sum_k |c_k| max(1,|z|)^k; natural scale for residual bounds at z."""
    zm = max(1.0, abs(z))
    scale = 0.0
    power = 1.0
    for c in p:
        scale += abs(complex(c)) * power
        power *= zm
    return max(scale, 1.0)


def roots(p: Poly, tol_cluster: float = CLUSTER_TOL) -> list[tuple[complex, int]]:
    """Roots of an exact polynomial with multiplicities, sorted by (Re, Im).

    Multiplicities come from the exact square-free decomposition; clustering
    at ``tol_cluster`` (relative) then merges any roots the float iteration
    failed to separate, summing their multiplicities.  Every returned root r
    satisfies |p(r)| < 1e-9 relative to the coefficient scale at r.
    """
    p = _ptrim(list(p))
    if _pdeg(p) < 1:
        raise ValueError("polynomial must have degree >= 1")
    found: list[tuple[complex, int]] = []
    for factor, mult in squarefree_factors(p):
        cf = [complex(c) for c in factor]
        lead = cf[-1]
        monic = [c / lead for c in cf]
        for r in _durand_kerner(monic):
            found.append((r, mult))

    # cluster: union-find over pairs within the relative tolerance
    scale = max(1.0, max(abs(r) for r, _ in found))
    parent = list(range(len(found)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            if abs(found[i][0] - found[j][0]) <= tol_cluster * scale:
                parent[find(i)] = find(j)

    groups: dict[int, list[tuple[complex, int]]] = {}
    for i, pair in enumerate(found):
        groups.setdefault(find(i), []).append(pair)
    merged: list[tuple[complex, int]] = []
    for members in groups.values():
        total = sum(m for _, m in members)
        center = sum(r * m for r, m in members) / total
        merged.append((center, total))

    bad = [
        abs(_peval_complex(p, r)) / _poly_scale_at(p, r)
        for r, _ in merged
        if abs(_peval_complex(p, r)) >= ROOT_RESIDUAL_TOL * _poly_scale_at(p, r)
    ]
    if bad:
        raise NumericFailureError(
            "root residuals exceed tolerance", tuple(sorted(bad, reverse=True)))
    merged.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return merged


# ---------------------------------------------------------------------------
# null spaces and rational reconstruction
# ---------------------------------------------------------------------------

def _nullspace(a: list[list[complex]], threshold: float) -> list[list[complex]]:
    """Basis of the null space by Gaussian elimination with partial pivoting.

    Columns whose best remaining pivot falls below ``threshold`` are treated
    as free; one basis vector is produced per free column by back
    substitution.  Each vector is divided by its first entry whose modulus
    lies within PEAK_TIE_TOL of the largest.
    """
    m = [list(r) for r in a]
    n = len(m)
    pivot_cols: list[int] = []
    free_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= n:
            free_cols.append(col)
            continue
        best = max(range(row, n), key=lambda r: abs(m[r][col]))
        if abs(m[best][col]) <= threshold:
            free_cols.append(col)
            continue
        m[row], m[best] = m[best], m[row]
        pivot = m[row][col]
        m[row] = [z / pivot for z in m[row]]
        for r in range(n):
            factor = m[r][col]
            if r != row and factor != 0:
                m[r] = [z - factor * p for z, p in zip(m[r], m[row])]
        pivot_cols.append(col)
        row += 1
    basis = []
    for free in free_cols:
        v = [0j] * n
        v[free] = 1 + 0j
        for r, col in enumerate(pivot_cols):
            v[col] = -m[r][free]
        floor = (1 - PEAK_TIE_TOL) * max(abs(z) for z in v)
        big = next(i for i, z in enumerate(v) if abs(z) >= floor)
        lead = v[big]
        basis.append([z / lead for z in v])
    return basis


def _reconstruct_scalar(z: complex,
                        cap: int = RECONSTRUCT_DEN_CAP) -> ComplexRational:
    """Nearest complex rational with denominators bounded by ``cap``.

    Uses continued-fraction best approximation on each part; callers must
    verify the candidate exactly before trusting it.
    """
    return ComplexRational(
        Fraction(z.real).limit_denominator(cap),
        Fraction(z.imag).limit_denominator(cap),
    )


def _verify_eigenvector(
    exact: tuple[tuple[ComplexRational, ...], ...],
    lam: ComplexRational,
    vec: tuple[ComplexRational, ...],
) -> bool:
    return any(vec) and not any(eigen_residual(exact, lam, vec))


# ---------------------------------------------------------------------------
# result types and the decomposition itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalFrequency:
    """One eigenvalue of the adjoint matrix with its eigenvector basis.

    ``lam_exact`` and the per-vector entries of ``eigenvectors_exact`` are
    None wherever rational reconstruction failed its exact verification;
    float values are always present.
    """

    lam: complex
    lam_exact: ComplexRational | None
    algebraic_multiplicity: int
    geometric_multiplicity: int
    eigenvectors: tuple[tuple[complex, ...], ...]
    eigenvectors_exact: tuple[tuple[ComplexRational, ...] | None, ...]


@dataclass(frozen=True)
class SpectralResult:
    """Frequencies sorted by (Re, Im), the exact characteristic polynomial,
    and whether any frequency is defective (geometric < algebraic)."""

    frequencies: tuple[NaturalFrequency, ...]
    char_poly: tuple[ComplexRational, ...]
    defective: bool


def eigen_decompose(m: ComplexMatrix,
                    tol_cluster: float = CLUSTER_TOL,
                    tol_rank: float = RANK_TOL) -> SpectralResult:
    """Full spectral data of an adjoint matrix.

    The input is expected to be the adjoint matrix of a Hermitian quadratic
    operator, whose spectrum is symmetric under lam -> -conj(lam); that
    pairing is verified (within 1e-8) and its failure, like any residual or
    convergence failure, raises NumericFailureError.
    """
    char = characteristic_polynomial(m)
    root_list = roots(char, tol_cluster)
    scale = max(1.0, max((abs(z) for row in m.entries for z in row), default=0.0))
    frequencies: list[NaturalFrequency] = []
    defective = False
    for lam, alg in root_list:
        shifted = [[z - lam if i == j else z for j, z in enumerate(row)]
                   for i, row in enumerate(m.entries)]
        basis = _nullspace(shifted, tol_rank * scale)
        geo = len(basis)
        if geo == 0:
            # The characteristic polynomial certifies this eigenvalue, so a
            # near-null direction exists even when closely spaced roots limit
            # the float root accuracy below the rank threshold.  Retry at the
            # clustering scale and keep only residual-verified vectors.
            relaxed = _nullspace(shifted, tol_cluster * scale)
            basis = [
                v for v in relaxed
                if max(map(abs, eigen_residual(m.entries, lam, v))) <= tol_cluster * scale
            ][:alg]
            geo = len(basis)
        if geo == 0 or geo > alg:
            raise NumericFailureError(
                f"null space extraction found {geo} vectors for a root of "
                f"multiplicity {alg}; rank tolerance {tol_rank} is inconsistent",
                (float(geo), float(alg)),
            )
        if geo < alg:
            defective = True
        lam_exact = None
        vecs_exact: list[tuple[ComplexRational, ...] | None] = [None] * geo
        cand = _reconstruct_scalar(lam)
        if not poly_eval(char, cand):
            lam_exact = cand
            for idx, v in enumerate(basis):
                vc = tuple(_reconstruct_scalar(z) for z in v)
                if _verify_eigenvector(m.exact, cand, vc):
                    vecs_exact[idx] = vc
        frequencies.append(NaturalFrequency(
            lam=lam,
            lam_exact=lam_exact,
            algebraic_multiplicity=alg,
            geometric_multiplicity=geo,
            eigenvectors=tuple(tuple(v) for v in basis),
            eigenvectors_exact=tuple(vecs_exact),
        ))

    for freq in frequencies:
        target = -freq.lam.conjugate()
        if not any(abs(other.lam - target) < 1e-8 for other in frequencies):
            raise NumericFailureError(
                "spectrum is not symmetric under lam -> -conj(lam); "
                "input does not look like the adjoint matrix of a Hermitian operator",
                (min(abs(o.lam - target) for o in frequencies),),
            )

    return SpectralResult(
        frequencies=tuple(frequencies),
        char_poly=tuple(char),
        defective=defective,
    )


def spectral_to_json(result: SpectralResult) -> dict:
    """Schema: char_poly as exact quadruples (ascending degree), frequencies
    each with float lambda, optional exact lambda, multiplicities, and the
    eigenvector basis (floats plus exact mirrors where verified)."""
    return {
        "char_poly_exact": [list(c.as_quad()) for c in result.char_poly],
        "defective": result.defective,
        "frequencies": [
            {
                "lambda": [f.lam.real, f.lam.imag],
                "lambda_exact": (
                    list(f.lam_exact.as_quad()) if f.lam_exact is not None else None
                ),
                "algebraic_multiplicity": f.algebraic_multiplicity,
                "geometric_multiplicity": f.geometric_multiplicity,
                "eigenvectors": [
                    [[z.real, z.imag] for z in v] for v in f.eigenvectors
                ],
                "eigenvectors_exact": [
                    [list(c.as_quad()) for c in v] if v is not None else None
                    for v in f.eigenvectors_exact
                ],
            }
            for f in result.frequencies
        ],
    }
