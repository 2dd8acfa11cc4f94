"""Natural frequencies of an adjoint matrix.

The adjoint matrix M = i*A*Omega of a Hermitian quadratic operator has the
characteristic polynomial chi(lambda) = q(lambda^2), with q of degree K and
real rational coefficients (the square-reduced structure of a Hamiltonian
matrix, Van Loan 1984).  The spectral data follow from q on one exact path:

1. chi is computed exactly over the complex rationals from the Hessenberg
   form of M.
2. The roots s of q come from its exact square-free decomposition (Yun's
   algorithm, which fixes every multiplicity) and a Durand-Kerner iteration
   per factor.  Newton steps in integer fixed point refine each s until the
   rational root theorem decides whether it lies in Q(i).  The
   frequencies are lambda = +-sqrt(s), exact iff s is a square in Q(i).
3. An exact lambda gets its eigenvectors by exact elimination on
   M - lambda*I; only irrational lambda use float elimination.

Everything is deterministic: fixed seed circle for the iteration, fixed
pivoting and normalization rules, fixed ordering of results by (Re, Im).
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Sequence

from .adjoint import ComplexMatrix, Scalar
from .errors import NumericFailureError
from .weyl import ComplexRational, ONE, ZERO

__all__ = [
    "NaturalFrequency",
    "SpectralResult",
    "characteristic_polynomial",
    "roots",
    "eigen_decompose",
    "spectral_to_json",
    "RANK_TOL",
]

RANK_TOL = 1e-10  # float null-space pivot threshold, in units of max(1, max |M_ij|)

ROOT_RESIDUAL_TOL = 1e-9   # relative bound on |p(root)| for accepted roots
MAX_SWEEPS = 500           # Durand-Kerner iteration cap
NEWTON_STEPS = 16          # exact refinement cap per root of q
FLOAT_BITS = 64            # absolute accuracy 2^-64 * max(1, |s|) of refined roots
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
    return _ptrim([x - y for x, y in zip_longest(a, b, fillvalue=ZERO)])


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
    return [c / p[-1] for c in p]


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

    Gaussian elimination by similarity transforms brings M to upper
    Hessenberg form H (Cohen, Alg. 2.2.9): a row operation below the
    subdiagonal and its inverse column operation per entry cleared.  The
    leading principal minors p_k = det(lambda*I - H_k) then satisfy

        p_k = (lambda - h_kk) p_{k-1}
              - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}.
    """
    n = m.dim
    h = [list(row) for row in m.exact]
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            for row in h:
                row[r], row[piv] = row[piv], row[r]
        top = h[r][c]
        for i in range(r + 1, n):
            if not h[i][c]:
                continue
            u = h[i][c] / top
            h[i] = [a - u * b for a, b in zip(h[i], h[r])]
            for row in h:
                if row[i]:
                    row[r] = row[r] + u * row[i]
    minors: list[Poly] = [[ONE]]
    for k in range(n):
        p = [ZERO] + minors[k]
        for j, c in enumerate(minors[k]):
            p[j] = p[j] - h[k][k] * c
        chain = ONE
        for i in range(k - 1, -1, -1):
            chain = chain * h[i + 1][i]
            if not chain:
                break
            coeff = h[i][k] * chain
            if coeff:
                for j, c in enumerate(minors[i]):
                    p[j] = p[j] - coeff * c
        minors.append(p)
    return minors[n] if n % 2 == 0 else [-c for c in minors[n]]


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
    z = [radius * cmath.exp(1j * (2.0 * cmath.pi * j / deg + 0.4))
         for j in range(deg)]
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
    raise NumericFailureError(
        f"root iteration did not converge within {MAX_SWEEPS} sweeps",
        tuple(abs(_peval_complex(coeffs, w)) for w in z))


def _poly_scale_at(p: Poly, z: complex) -> float:
    """Sum_k |c_k| max(1,|z|)^k; natural scale for residual bounds at z."""
    zm = max(1.0, abs(z))
    return max(1.0, sum(abs(complex(c)) * zm ** k for k, c in enumerate(p)))


def roots(p: Poly) -> list[tuple[complex, int]]:
    """Float roots of an exact polynomial with multiplicities, sorted by (Re, Im).

    Multiplicities come from the exact square-free decomposition, whose
    factors are coprime with simple roots, so no two returned roots stand for
    the same exact root.  Every returned root r satisfies |p(r)| < 1e-9
    relative to the coefficient scale at r.
    """
    p = _ptrim(list(p))
    if _pdeg(p) < 1:
        raise ValueError("polynomial must have degree >= 1")
    found: list[tuple[complex, int]] = []
    for factor, mult in squarefree_factors(p):  # monic factors
        found += [(r, mult) for r in _durand_kerner([complex(c) for c in factor])]
    residuals = [abs(_peval_complex(p, r)) / _poly_scale_at(p, r) for r, _ in found]
    bad = sorted((x for x in residuals if x >= ROOT_RESIDUAL_TOL), reverse=True)
    if bad:
        raise NumericFailureError("root residuals exceed tolerance", tuple(bad))
    found.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return found


def _gauss_horner(coeffs: list[int], x: int, y: int, bits: int) -> tuple[int, int]:
    """2^(bits*n) p((x + iy)/2^bits) as a Gaussian integer, n = deg p."""
    re, im, scale = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        scale <<= bits
        re, im = re * x - im * y + c * scale, re * y + im * x
    return re, im


def _refine_root(q: Poly, z: complex,
                 mult: int) -> tuple[complex, ComplexRational | None]:
    """Refine a float root z of q of multiplicity ``mult``; decide it exactly.

    q must have rational coefficients; scaled to integers with leading
    coefficient lead, any Gaussian-rational root s has lead*s in Z[i]
    (rational root theorem).  Newton steps z -= mult*q(z)/q'(z) run in integer
    fixed point, z = (x + iy)/2^bits.  Some root of q lies within
    r = deg*|q(z)/q'(z)| of z, and within 2r of the stepped z; once
    2r < 1/(4*lead), rounding lead*z finds that root if it is a Gaussian
    rational, which q(root) == 0 and a distance of at most 2r then verify.
    Returns the refined float and the exact root or None.
    """
    den = lcm(*(c.re.denominator for c in q))
    ints = [int(c.re * den) for c in q]
    lead, deg = abs(ints[-1]), len(ints) - 1
    slopes = [k * c for k, c in enumerate(ints)][1:]
    bits = lead.bit_length() + FLOAT_BITS + 8
    one = 1 << bits
    x, y = round(Fraction(z.real) * one), round(Fraction(z.imag) * one)
    for _ in range(NEWTON_STEPS):
        ax, ay = _gauss_horner(ints, x, y, bits)        # 2^(bits*deg) q(z)
        bx, by = _gauss_horner(slopes, x, y, bits)      # 2^(bits*(deg-1)) q'(z)
        na, nb = ax * ax + ay * ay, bx * bx + by * by
        if not na:
            break  # z is a root; rounding below finds it exactly
        if not nb:
            return complex(x / one, y / one), None
        # step mult*q/q' = mult*a*conj(b)/|b|^2 units of 2^-bits, rounded half up
        x -= (2 * mult * (ax * bx + ay * by) + nb) // (2 * nb)
        y -= (2 * mult * (ay * bx - ax * by) + nb) // (2 * nb)
        # (2r)^2 = 4 deg^2 |a|^2/(|b|^2 4^bits) < 1/(16 lead^2), max(1,|z|^2)/4^FLOAT_BITS
        if (64 * deg * deg * lead * lead * na < nb * one * one
                and (4 * deg * deg * na << 2 * FLOAT_BITS)
                < nb * max(one * one, x * x + y * y)):
            break
    else:
        return complex(x / one, y / one), None
    gx, gy = (2 * lead * x + one) // (2 * one), (2 * lead * y + one) // (2 * one)
    ex, ey = lead * x - gx * one, lead * y - gy * one   # lead*2^bits*(z - g/lead)
    near = ComplexRational(Fraction(gx, lead), Fraction(gy, lead))
    if (ex * ex + ey * ey) * nb > 4 * deg * deg * na * lead * lead or poly_eval(q, near):
        return complex(x / one, y / one), None  # another root may be the rational one
    return complex(near), near


def _rational_sqrt(r: Fraction) -> Fraction | None:
    """The square root of r >= 0 when it is rational, else None."""
    root = Fraction(isqrt(r.numerator), isqrt(r.denominator))
    return root if root * root == r else None


def _sqrt_exact(s: ComplexRational) -> ComplexRational | None:
    """The square root x + iy of s with x >= 0 in Q(i), or None.

    x^2 = (Re s + |s|)/2 and y = Im s/(2x), so |s| and x must be rational;
    x = 0 leaves s = -y^2 with y^2 = |s|.
    """
    re, im = s.re, s.im
    modulus = _rational_sqrt(re * re + im * im)
    x = None if modulus is None else _rational_sqrt((re + modulus) / 2)
    if not x:
        y = None if x is None else _rational_sqrt(modulus)
        return None if y is None else ComplexRational(0, y)
    return ComplexRational(x, im / (2 * x))


# ---------------------------------------------------------------------------
# null spaces
# ---------------------------------------------------------------------------

def _nullspace(a: Sequence[Sequence[Scalar]], threshold: float) -> list[list[Scalar]]:
    """Basis of the null space by Gauss-Jordan elimination.

    Runs in complex floats with partial pivoting, or exactly over the
    Gaussian rationals with threshold 0 and the first nonzero pivot (the
    reduced form is unique).  Columns whose best remaining pivot has
    modulus at most ``threshold`` are treated as free; one basis vector is
    produced per free column by back substitution.  Each vector is divided
    by its first entry whose float modulus lies within PEAK_TIE_TOL of the
    largest.
    """
    m = [list(r) for r in a]
    n = len(m)
    scalar = type(m[0][0]) if n else complex
    pivot_cols: list[int] = []
    free_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= n:
            free_cols.append(col)
            continue
        best = (max(range(row, n), key=lambda r: abs(m[r][col])) if threshold
                else next((r for r in range(row, n) if m[r][col]), row))
        if not m[best][col] or (threshold and abs(m[best][col]) <= threshold):
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
        v = [scalar(0)] * n
        v[free] = scalar(1)
        for r, col in enumerate(pivot_cols):
            v[col] = -m[r][free]
        floor = (1 - PEAK_TIE_TOL) * max(abs(z) for z in v)
        big = next(i for i, z in enumerate(v) if abs(z) >= floor)
        lead = v[big]
        basis.append([z / lead for z in v])
    return basis


# ---------------------------------------------------------------------------
# result types and the decomposition itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalFrequency:
    """One eigenvalue of the adjoint matrix with its eigenvector basis.

    ``lam_exact`` is the eigenvalue in Q(i), or None when it is irrational;
    ``eigenvectors_exact`` is then None per vector, else the exact basis that
    ``eigenvectors`` holds in floats."""

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


def _eigenvalues(q: Poly) -> list[tuple[complex, ComplexRational | None, int]]:
    """(float, exact or None, multiplicity) for every lambda with q(lambda^2) = 0.

    A root s != 0 of q of multiplicity k gives +-sqrt(s), each of
    multiplicity k; s = 0 gives lambda = 0 of multiplicity 2k.
    """
    out = []
    for s, k in roots(q):
        s, exact = _refine_root(q, s, k)
        root = None if exact is None else _sqrt_exact(exact)
        if root is not None and not root:
            out.append((0j, ZERO, 2 * k))
        elif root is not None:
            out += [(complex(root), root, k), (complex(-root), -root, k)]
        elif not s:
            raise NumericFailureError("a nonzero root of q underflows to 0.0 in floats")
        else:
            w = cmath.sqrt(s)  # 0j - w below: no negative zero in an exact-zero part
            out += [(w, None, k), (0j - w, None, k)]
    out.sort(key=lambda e: (e[0].real, e[0].imag))
    return out


def eigen_decompose(m: ComplexMatrix) -> SpectralResult:
    """Full spectral data of an adjoint matrix.

    The input must be the adjoint matrix of a Hermitian quadratic operator,
    whose characteristic polynomial is q(lambda^2) with q real; anything else
    raises NumericFailureError.  Frequencies come as +-sqrt(s) for the roots s
    of q, so -conj(lambda) is one whenever lambda is.  A float eigenvalue
    without eigenvectors at the relative pivot threshold RANK_TOL, or with
    more than its multiplicity, also raises NumericFailureError.
    """
    char = characteristic_polynomial(m)
    q = char[::2]
    odd = [abs(c) for c in char[1::2] if c] + [abs(c.im) for c in q if c.im]
    if odd:
        raise NumericFailureError(
            "spectrum is not symmetric under lam -> -conj(lam); "
            "input does not look like the adjoint matrix of a Hermitian operator",
            (max(odd),),
        )
    scale = max(1.0, max((abs(z) for row in m.entries for z in row), default=0.0))
    frequencies: list[NaturalFrequency] = []
    for lam, lam_exact, alg in _eigenvalues(q):
        rows, shift, threshold = ((m.entries, lam, RANK_TOL * scale)
                                  if lam_exact is None else (m.exact, lam_exact, 0))
        basis = _nullspace([[z - shift if i == j else z for j, z in enumerate(row)]
                            for i, row in enumerate(rows)], threshold)
        geo = len(basis)
        if geo == 0 or geo > alg:
            raise NumericFailureError(
                f"null space extraction found {geo} vectors for a root of "
                f"multiplicity {alg}; rank tolerance {RANK_TOL} is inconsistent",
                (float(geo), float(alg)),
            )
        frequencies.append(NaturalFrequency(
            lam=lam,
            lam_exact=lam_exact,
            algebraic_multiplicity=alg,
            geometric_multiplicity=geo,
            eigenvectors=tuple(tuple(complex(z) for z in v) for v in basis),
            eigenvectors_exact=tuple(
                None if lam_exact is None else tuple(v) for v in basis),
        ))
    return SpectralResult(
        frequencies=tuple(frequencies), char_poly=tuple(char),
        defective=any(f.geometric_multiplicity < f.algebraic_multiplicity
                      for f in frequencies))


def spectral_to_json(result: SpectralResult) -> dict:
    """Schema: char_poly as exact quadruples (ascending degree), frequencies
    each with float lambda, optional exact lambda, multiplicities, and the
    eigenvector basis (floats, plus the exact basis where lambda is exact)."""
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
