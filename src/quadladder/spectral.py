"""Natural frequencies of an adjoint matrix.

The adjoint matrix M = i*A*Omega of a Hermitian quadratic operator has the
characteristic polynomial chi(lambda) = q(lambda^2), with q of degree K and
real rational coefficients (the square-reduced structure of a Hamiltonian
matrix, Van Loan 1984).  The spectral data follow from q on one exact path:

1. chi is computed exactly from M's integer form (d, B), B = d*M with d the
   lcm of the denominators, by Berkowitz's division-free recurrence over the
   leading blocks of B, in integer products and sums alone.
2. The roots s of q come from its exact square-free decomposition (q is
   real: modulo 2^61 - 1, gcd(q, q') of degree 0 proves it square-free;
   otherwise Yun's algorithm over Q(i) fixes every multiplicity) and one
   Aberth iteration per factor in integer fixed point, from Newton-polygon
   seeds.  Each root is accepted by its own small inclusion disc, disjoint
   from the others; then the rational root theorem decides, in integers,
   whether it lies in Q(i).  The frequencies are lambda = +-sqrt(s), exact
   iff s is a square.
3. A simple exact lambda = g/L takes its eigenvector from one column of the
   adjugate over Z[i], adj(uI - B) e_0 = sum u^k b_k with b_(n-1) = e_0 and
   b_(k-1) = B b_k + A_k e_0 for det(uI - B) = sum A_k u^k, once per
   matrix.  At u = d*lambda it is a multiple of adj(lambda I - M) e_0, an
   eigenvector whenever it is nonzero, since (lambda I - M) adj(lambda I - M)
   = chi(lambda) I = 0; it is evaluated homogeneously in integers, and one
   division normalizes it.  Repeated roots, a column that vanishes at
   lambda, and irrational lambda take Gauss-Jordan elimination (the
   package's one, which wavefn also runs to invert a Gaussian exponent)
   on M - lambda*I, exact over Q(i), or in floats with n - geo pivots, where
   the geometric multiplicity geo is exact: 1 for a simple root, else read
   off M on the kernel of f(M^2), f the square-free factor of q with f(lambda^2) = 0.

Everything is deterministic: integer seeds and iteration, fixed pivoting
and normalization rules, fixed ordering of results by (Re, Im).
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import isqrt
from typing import Sequence

from .adjoint import ComplexMatrix, Scalar, integer_matvec
from .errors import NumericFailureError
from .weyl import ComplexRational, ONE, ZERO, _common_denominator, _reduced

__all__ = [
    "NaturalFrequency",
    "SpectralResult",
    "characteristic_polynomial",
    "roots",
    "eigen_decompose",
    "spectral_to_json",
]

MAX_SWEEPS = 500           # Aberth sweeps per factor of q: a bound on work only
FLOAT_BITS = 64            # each root's disc radius is below 2^-65 * max(1, |s|)
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
    return p if p[-1] == ONE else [c / p[-1] for c in p]


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the complex rationals."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def _pderiv(p: Poly) -> Poly:
    return _ptrim([p[k] * k for k in range(1, len(p))])


def _relative_residual(p, z: complex) -> float:
    """|p(z)| in floats over max(1, sum_k |c_k| max(1, |z|)^k), the scale at z."""
    acc, zm = 0j, max(1.0, abs(z))
    for c in reversed(p):
        acc = acc * z + complex(c)
    return abs(acc) / max(1.0, sum(abs(complex(c)) * zm ** k for k, c in enumerate(p)))


def _squarefree_mod(p: Poly) -> bool:
    """True when a real p is certainly square-free over Q(i): modulo
    P = 2^61 - 1, P does not divide the leading coefficient of p's integer
    form and gcd(p, p') has degree 0.  A common factor of degree k over Q(i)
    would map to one of degree k there (the degree argument of Brown's
    modular gcd, J. ACM 1971).  A non-real p gives False, which leaves it to
    Yun's algorithm."""
    big = (1 << 61) - 1
    _, pairs = _common_denominator(p)
    a = [x % big for x, _ in pairs]
    if any(y for _, y in pairs) or not a[-1]:
        return False
    # deg p < P, so lc(p') = deg p * lc(p) is nonzero when lc(p) is
    b = [k * x % big for k, (x, _) in enumerate(pairs)][1:]
    while b:  # Euclid on trimmed remainders
        inv = pow(b[-1], -1, big)
        while len(a) >= len(b):
            f = a[-1] * inv % big
            for j, c in enumerate(b[:-1], len(a) - len(b)):
                a[j] = (a[j] - f * c) % big
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: p ~ prod f_k^k with f_k square-free.

    The constant factor is dropped (only root structure matters here), and
    each returned factor is monic.  _squarefree_mod settles the common
    square-free case without Euclid over Q(i).
    """
    p = _pmonic(p)
    if _pdeg(p) < 1:
        return []
    if _squarefree_mod(p):
        return [(p, 1)]
    dp = _pderiv(p)
    g = _pgcd(p, dp)
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

# Bit length of the coefficient bound past which a characteristic polynomial is
# refused: a bound on work only, since the recurrence's integers grow with it.
MAX_CHARPOLY_BITS = 1398269


def characteristic_polynomial(m: ComplexMatrix) -> Poly:
    """Coefficients of det(M - lambda*I), ascending, exact.

    A 2 x 2 M expands over Q(i).  Otherwise it reads M's integer form
    (d, B = d*M) and writes B = i^rot B', with rot = 1 if M is i times a real
    matrix, else 0, so that B' is a matrix of ints for every adjoint matrix
    (of Gaussian integers, ComplexRationals over 1, otherwise).  Berkowitz's
    division-free recurrence (Inform. Process. Lett. 18, 1984) gives
    det(tI - B') = sum_k c_k t^k: for each leading block
    B_r = [[B_(r-1), C], [R, b_rr]], det(tI - B_r) is the column
    (1, -b_rr, -R C, -R B_(r-1) C, ...) convolved with det(tI - B_(r-1)).
    det(M - tI) = (-1)^n sum_k i^(rot (n-k)) c_k d^(k-n) t^k.  Each |c_k| is
    at most (1 + R)^n, R the largest row sum of |Re| + |Im| in B; a bound
    2 (1 + R)^n of more than MAX_CHARPOLY_BITS bits raises NumericFailureError.
    """
    n = m.dim
    if n == 2:  # cheaper without the recurrence
        (a, b), (c, e) = m.exact
        return [a * e - b * c, -(a + e), ONE]
    d, rows = m.integer_form
    rot = (0 if not any(b for row in rows for *_, b in row)
           else 1 if not any(a for row in rows for _, a, _ in row) else None)
    bound = 2 * (1 + max((sum(abs(a) + abs(b) for _, a, b in row) for row in rows),
                         default=0)) ** n
    if bound.bit_length() > MAX_CHARPOLY_BITS:
        raise NumericFailureError(f"characteristic polynomial bound of {bound.bit_length()} "
                                  f"bits exceeds the limit of {MAX_CHARPOLY_BITS} bits")
    one, zero = (1, 0) if rot is not None else (ONE, ZERO)
    b = [[(j, x + y if rot is not None else _reduced(x, y, 1)) for j, x, y in row]
         for row in rows]  # B' by nonzero entries; x or y is 0 when rot is not None
    poly = [one]  # det(tI - B_r), descending
    for r, row in enumerate(b):
        block = [[(j, x) for j, x in cells if j < r] for cells in b[:r]]  # B_(r-1)
        v = [next((x for j, x in cells if j == r), zero) for cells in b[:r]]  # C
        top = [(j, x) for j, x in row if j < r]  # R
        column = [one, zero - next((x for j, x in row if j == r), zero)]
        for k in range(r):  # -R B_(r-1)^k C
            if k:
                v = [sum([x * v[j] for j, x in cells], zero) for cells in block]
            column.append(zero - sum([x * v[j] for j, x in top], zero))
        poly = [sum((column[i - j] * poly[j] for j in range(min(i, r) + 1)), zero)
                for i in range(r + 2)]
    pairs = [(c, 0) for c in poly] if rot is not None else _common_denominator(poly)[1]
    out = []
    for k in range(n + 1):
        a, b = pairs[n - k]
        a, b = ((a, b), (-b, a), (-a, -b), (b, -a))[(2 * n + (rot or 0) * (n - k)) % 4]
        out.append(_reduced(a, b, d ** (n - k)))
    return out


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@cache
def _circle(k1: int, m: int, deg: int) -> tuple[tuple[int, int], ...]:
    """e^(it) at t = 2 pi (j/m + k1/deg) + 2/5 for j < m, pi taken as 355/113, in
    fixed point 2^-32 from 60 Taylor terms: seeds need spread, not accuracy."""
    out = []
    for j in range(m):
        t = Fraction(710, 113) * ((Fraction(j, m) + Fraction(k1, deg)) % 1) + Fraction(2, 5)
        n, d, re, im, x, y = t.numerator, t.denominator, 1 << 32, 0, 0, 0
        for k in range(1, 61):
            x, y, re, im = x + re, y + im, -im * n // (d * k), re * n // (d * k)
        out.append((x, y))
    return tuple(out)


def _newton_polygon(ints: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The edges (k1, k2, e) of the upper convex hull of the points (k, h_k),
    h_k the bit length of |c_k|^2, with e = (h_k1 - h_k2) // (2 (k2 - k1)):
    k2 - k1 roots have moduli near 2^e (Bini, Numer. Algorithms 1996)."""
    hull: list[tuple[int, int]] = []
    for k, (a, b) in enumerate(ints):
        h = (a * a + b * b).bit_length()
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                 <= (h - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, h))
    return [(k1, k2, (h1 - h2) // (2 * (k2 - k1))) for (k1, h1), (k2, h2) in zip(hull, hull[1:])]


def _disc_radius(fx: int, fy: int, dx: int, dy: int, deg: int) -> int | None:
    """An integer R > deg |f(z)/f'(z)| in units 2^-bits, for f(z) = fx + i fy and
    f'(z) = dx + i dy in those units: the disc of radius R about z holds a root
    of f, since f'/f = sum_k 1/(z - s_k).  None where f'(z) = 0."""
    nd = dx * dx + dy * dy
    return isqrt(deg * deg * (fx * fx + fy * fy) // nd) + 1 if nd else None


def _isolated(z: list[tuple[int, int]], values: list[tuple[int, int, int, int]],
              lead: int, bits: int) -> list[int] | None:
    """The radii R_j of _disc_radius at the z_j (units 2^-bits) if every
    2R_j < 2^-FLOAT_BITS max(1, |z_j|) and 2R_j < 1/(4 lead) and no two discs
    meet, so that each holds exactly one root of f (degree len(z)); else None."""
    one, radii = 1 << bits, []
    for (x, y), v in zip(z, values):
        r = _disc_radius(*v, len(z))
        if (r is None or (r * r << 2 * FLOAT_BITS + 2) >= max(one * one, x * x + y * y)
                or 8 * lead * r >= one):
            return None
        radii.append(r)
    disjoint = all((x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2
                   for j, ((x, y), r) in enumerate(zip(z, radii))
                   for (u, v), t in zip(z[j + 1:], radii[j + 1:]))
    return radii if disjoint else None


def _gauss_horner(coeffs: list[tuple[int, int]], x: int, y: int,
                  den: int) -> tuple[int, int]:
    """den^n p((x + iy)/den) as a Gaussian integer, for p with Gaussian-integer
    coefficients (re, im), n = deg p."""
    (re, im), scale = coeffs[-1], 1
    for a, b in coeffs[-2::-1]:
        scale *= den
        re, im = re * x - im * y + a * scale, re * y + im * x + b * scale
    return re, im


def _factor_roots(f: Poly) -> list[tuple[complex, ComplexRational | None]]:
    """The roots of a monic square-free f as (float, exact or None).

    Aberth's iteration (Aberth, Math. Comp. 1973) runs in the Gaussian fixed
    point z = (x + iy)/2^bits, bits = lead.bit_length() + FLOAT_BITS + 8 - e,
    lead the common denominator of f and 2^e < 1 the smallest modulus that
    the Newton polygon predicts (e = 0 if none is below 1), so that a small
    root keeps its own significant bits: each z_j in turn moves by
    N/(1 - N sum_k 1/(z_j - z_k)), N = f/f'(z_j), or by N alone once
    _isolated, asked after a sweep of small steps, accepts the discs.  The
    first accepted sweep that moves no iterate ends it; each z_j is then a
    fixed point of its rounded Newton step, with one root s_j in its disc.
    If s_j is in Q(i), lead*s_j is in Z[i] (rational root theorem): rounding
    lead*z_j finds it, which f(g/lead) == 0 and |z_j - g/lead| <= R_j verify.
    More than MAX_SWEEPS sweeps raise NumericFailureError.
    """
    if len(f) == 2:
        return [(complex(-f[0]), -f[0])]
    lead, ints = _common_denominator(f)
    slopes = [(k * a, k * b) for k, (a, b) in enumerate(ints)][1:]
    edges = _newton_polygon(ints)
    bits = lead.bit_length() + FLOAT_BITS + 8 + max(0, -min(e for *_, e in edges))
    one = 1 << bits
    # seeds: each edge puts k2 - k1 points on the circle of radius 2^e, or of
    # 2^8 units if that is smaller, so that the points of a circle are distinct
    z = [((x << s) >> 32, (y << s) >> 32) for k1, k2, e in edges
         for s in [max(bits + e, 8)] for x, y in _circle(k1, k2 - k1, len(ints) - 1)]
    near = False  # the last steps were below 2^-16 max(1, |z_j|)
    for _ in range(MAX_SWEEPS):  # one^deg f(z_j), one^(deg - 1) f'(z_j)
        values = [_gauss_horner(ints, x, y, one) + _gauss_horner(slopes, x, y, one)
                  for x, y in z]
        radii = _isolated(z, values, lead, bits) if near else None
        settled, near = radii is not None, True
        for j, (fx, fy, dx, dy) in enumerate(values):
            x, y = z[j]
            nd = dx * dx + dy * dy  # N = f/f' = (re + i im)/nd in units 2^-bits
            re, im = fx * dx + fy * dy, fy * dx - fx * dy
            if radii is None and nd:  # Aberth: N/(1 - t), t = sum_k N/(z_j - z_k)
                nx, ny = (re << bits) // nd, (im << bits) // nd
                tx = ty = 0  # N one and the scale-free t in units 2^-bits
                for u, v in z[:j] + z[j + 1:]:
                    du, dv = x - u, y - v
                    if du or dv:
                        m = du * du + dv * dv
                        tx, ty = tx + (nx * du + ny * dv) // m, ty + (ny * du - nx * dv) // m
                ex, ey = one - tx, -ty
                re, im, nd = nx * ex + ny * ey, ny * ex - nx * ey, ex * ex + ey * ey
            if nd:  # the step rounded half up
                step = ((2 * re + nd) // (2 * nd), (2 * im + nd) // (2 * nd))
                settled = settled and step == (0, 0)
                near = near and abs(step[0]) + abs(step[1]) << 16 < max(one, abs(x) + abs(y))
                z[j] = (x - step[0], y - step[1])
        if settled:
            break
    else:
        radii = [_disc_radius(*v, len(z)) or one << 1023 for v in values]  # None: f' = 0
        raise NumericFailureError(
            f"root discs still wide or overlapping after {MAX_SWEEPS} sweeps",
            tuple(min(r, one << 1023) / one for r in radii))
    out = []
    for (x, y), r in zip(z, radii):
        gx, gy = (2 * lead * x + one) // (2 * one), (2 * lead * y + one) // (2 * one)
        ex, ey = lead * x - gx * one, lead * y - gy * one  # lead one (z - g/lead)
        exact = (_reduced(gx, gy, lead) if ex * ex + ey * ey <= (lead * r) ** 2
                 and _gauss_horner(ints, gx, gy, lead) == (0, 0) else None)
        out.append((complex(_reduced(x, y, one) if exact is None else exact), exact))
    return out


def roots(p: Poly) -> list[tuple[complex, ComplexRational | None, int]]:
    """Roots of an exact polynomial as (float, exact or None, multiplicity),
    sorted by the float's (Re, Im): each root of each exact square-free factor
    (coprime, with simple roots) certified by _factor_roots.
    """
    p = _ptrim(list(p))
    if _pdeg(p) < 1:
        raise ValueError("polynomial must have degree >= 1")
    return sorted(((z, exact, mult) for f, mult in squarefree_factors(p)
                   for z, exact in _factor_roots(f)), key=lambda r: (r[0].real, r[0].imag))


def _sqrt_exact(s: ComplexRational) -> ComplexRational | None:
    """The square root x + iy of s = (a + bi)/d with x >= 0 in Q(i), or None.

    x^2 = (a + m)/(2d) with m^2 = a^2 + b^2 and y = b/(2dx), so m and
    X = sqrt(2d(a + m)) must be integers; then x = X/(2d) and y = b/X.
    X = 0 leaves s = a/d <= 0, whose root is i sqrt(-ad)/d.
    """
    d, ((a, b),) = _common_denominator([s])
    m = isqrt(a * a + b * b)
    big_x = isqrt(2 * d * (a + m))
    if m * m != a * a + b * b or big_x * big_x != 2 * d * (a + m):
        return None
    if big_x:
        return _reduced(big_x * big_x, 2 * d * b, 2 * d * big_x)
    y = isqrt(-a * d)
    return _reduced(0, y, d) if y * y == -a * d else None


# ---------------------------------------------------------------------------
# null spaces
# ---------------------------------------------------------------------------

def _gauss_jordan(m: list[list[Scalar]],
                  rank: int | None = None) -> tuple[list[int], list[Scalar]]:
    """Reduce the rows of m in place by Gauss-Jordan elimination; return the
    pivot columns and the pivots, each taken before its row is divided by it.

    Without ``rank`` it runs exactly over the Gaussian rationals, taking the
    first nonzero pivot in column order until none is left (the reduced form
    is unique); in complex floats it takes ``rank`` pivots of largest modulus.
    """
    n = len(m)
    pivot_cols: list[int] = []
    pivots: list[Scalar] = []
    free_cols = list(range(len(m[0]) if n else 0))
    for row in range(n if rank is None else rank):
        if rank is None:
            cells = ((r, c) for c in free_cols for r in range(row, n))
            best, col = next(((r, c) for r, c in cells if m[r][c]), (row, free_cols[0]))
        else:
            # the first largest modulus in column-then-row order
            peak = None
            for c in free_cols:
                mods = [abs(m[r][c]) for r in range(row, n)]
                top = max(mods)
                if peak is None or top > peak:
                    peak, best, col = top, row + mods.index(top), c
        if not m[best][col]:
            break
        m[row], m[best] = m[best], m[row]
        pivot = m[row][col]
        m[row] = [z / pivot for z in m[row]]
        for r in range(n):
            factor = m[r][col]
            if r != row and factor != 0:
                m[r] = [z - factor * p for z, p in zip(m[r], m[row])]
        pivot_cols.append(col)
        pivots.append(pivot)
        free_cols.remove(col)
    return pivot_cols, pivots


def _nullspace(a: Sequence[Sequence[Scalar]],
               rank: int | None = None) -> list[list[Scalar]]:
    """Basis of the null space of a square matrix: each free column of
    _gauss_jordan's reduced form (exact without ``rank``) gives one basis
    vector, normalized by _normalized."""
    m = [list(r) for r in a]
    n = len(m)
    scalar = type(m[0][0]) if n else complex
    pivot_cols, _ = _gauss_jordan(m, rank)
    basis = []
    for free in [c for c in range(n) if c not in pivot_cols]:
        v = [scalar(0)] * n
        v[free] = scalar(1)
        for r, col in enumerate(pivot_cols):
            v[col] = -m[r][free]
        basis.append(_normalized(v))
    return basis


def _normalized(v: list[Scalar], moduli: list[float] | None = None) -> list[Scalar]:
    """v divided by its first entry whose float modulus (abs, unless given)
    lies within PEAK_TIE_TOL of the largest, so that entry becomes 1."""
    moduli = moduli or [abs(z) for z in v]
    floor = (1 - PEAK_TIE_TOL) * max(moduli)
    lead = next(z for z, r in zip(v, moduli) if r >= floor)
    return [z / lead for z in v]


def _eigenspace_factors(m: ComplexMatrix, f: Poly) -> list[tuple[Poly, int]]:
    """Yun factors of the characteristic polynomial of M on the kernel of f(M^2),
    which is prod (t - mu)^geo(mu) over the distinct roots mu of f(t^2), since
    f(M^2) = prod (M - mu I) (times M^2, a nilpotent block at 0, if f(0) = 0)."""
    rows = [[(k, z) for k, z in enumerate(row) if z] for row in m.exact]
    acc = [[ZERO] * m.dim for _ in rows]  # f(M^2) by Horner
    for c in reversed(f):
        for _ in range(2):  # M times acc, over the nonzero entries of M
            acc = [[sum((z * acc[k][j] for k, z in row), ZERO) for j in range(m.dim)]
                   for row in rows]
        acc = [[z + c if i == j else z for j, z in enumerate(r)] for i, r in enumerate(acc)]
    basis = _nullspace(acc)
    own = [next(i for i, z in enumerate(v) if z and all(w is v or not w[i] for w in basis))
           for v in basis]  # M b_k = sum_j r_jk b_j: read r_jk where b_j alone is nonzero
    images = [[sum((z * v[k] for k, z in row), ZERO) for row in rows] for v in basis]
    return squarefree_factors(characteristic_polynomial(ComplexMatrix(
        [[w[i] / v[i] for w in images] for v, i in zip(basis, own)])))


def _adjugate_column(m: ComplexMatrix, chi: Poly) -> list[list[tuple[int, int]]]:
    """adj(uI - B) e_0 = sum u^k b_k over Z[i], entry by entry as polynomials
    in u with coefficient pairs (re, im), for M's integer form (d, B).

    chi = det(tI - M) = sum a_k t^k is monic, so det(uI - B) = sum A_k u^k
    with A_k = d^(n-k) a_k in Z[i]; b_(n-1) = e_0 and
    b_(k-1) = B b_k + A_k e_0, one matrix-vector product per step.  At
    u = d*t, uI - B = d (tI - M), so the column is d^(n-1) adj(tI - M) e_0.
    """
    d, rows = m.integer_form
    n = m.dim
    _, coeffs = _common_denominator([c * d ** (n - k) for k, c in enumerate(chi)])
    b = [(1, 0)] + [(0, 0)] * (n - 1)
    column = [b]
    for k in range(n - 1, 0, -1):
        b = integer_matvec(rows, b)
        b[0] = (b[0][0] + coeffs[k][0], b[0][1] + coeffs[k][1])
        column.append(b)
    return [list(entry) for entry in zip(*reversed(column))]


def _column_vector(column: list[list[tuple[int, int]]], d: int,
                   lam: ComplexRational) -> list[ComplexRational] | None:
    """The column at u = d*lam, normalized as _normalized does, or None where it
    vanishes.  For lam = g/L, homogeneous Horner gives L^(n-1) c(d g/L) in
    Z[i], a scale that the one division by the normalizing entry removes.
    Float moduli are taken after a common shift that keeps them finite."""
    den, ((gx, gy),) = _common_denominator([lam])
    v = [_gauss_horner(entry, d * gx, d * gy, den) for entry in column]
    shift = max(max(abs(x), abs(y)) for x, y in v).bit_length() - 1000
    if shift == -1000:
        return None
    shift = max(shift, 0)
    return _normalized([_reduced(x, y, 1) for x, y in v],
                       [abs(complex(x >> shift, y >> shift)) for x, y in v])


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
    for s, exact, k in roots(q):
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
    of q, so -conj(lambda) is one whenever lambda is.  A simple exact lambda
    takes its eigenvector from the adjugate column adj(lambda I - M) e_0, the
    same normalized vector that exact elimination finds, and falls back to
    elimination where that column vanishes.  Every rank is exact: a
    repeated irrational lambda takes its geometric multiplicity from M on the
    kernel of f(M^2), f the square-free factor of q that holds lambda^2.
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
    chi = char if m.dim % 2 == 0 else [-c for c in char]  # det(tI - M)
    column = None  # adj(uI - B) e_0, built at the first simple exact lambda
    factors = {}  # multiplicity k of a Yun factor of q -> its _eigenspace_factors
    frequencies: list[NaturalFrequency] = []
    for lam, lam_exact, alg in _eigenvalues(q):
        basis = None
        if lam_exact is not None and alg == 1:
            if column is None:
                column = _adjugate_column(m, chi)
            v = _column_vector(column, m.integer_form[0], lam_exact)
            if v is not None:
                basis = [v]
        if basis is None:
            rows, shift, rank = m.exact, lam_exact, None
            if lam_exact is None:
                if alg > 1 and alg not in factors:  # Yun multiplicities are distinct
                    factors[alg] = _eigenspace_factors(
                        m, next(f for f, k in squarefree_factors(q) if k == alg))
                geo = 1 if alg == 1 else min(  # lambda is a root of one coprime factor
                    factors[alg], key=lambda fk: _relative_residual(fk[0], lam))[1]
                rows, shift, rank = m.entries, lam, m.dim - geo
            basis = _nullspace([[z - shift if i == j else z for j, z in enumerate(row)]
                                for i, row in enumerate(rows)], rank)
        frequencies.append(NaturalFrequency(
            lam=lam,
            lam_exact=lam_exact,
            algebraic_multiplicity=alg,
            geometric_multiplicity=len(basis),
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
