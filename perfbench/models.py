"""Seeded model generators for the quadladder benchmark.

Every model is a quadratic Hamiltonian

    H = 1/2 p^T A p + 1/2 x^T V x + x^T G p

handed to the program only as a ``--bateman`` or ``--expr`` string.  The
generator keeps the data it built the model from (A, V, G and, where known,
the exact frequencies), so the output checks never have to trust the program
under test.  With [x_m, p_n] = i delta_mn the adjoint matrix of H over the
basis (x1..xK, p1..pK) is M = i R with

    R = [[-G, V], [-A, G^T]],

which ``adjoint_real_part`` builds independently of the program.

A workload's models come in blocks.  Every block holds each stratum of the
workload a fixed number of times, shuffled by the seed, so the share of cheap
and expensive models -- and with it the median and the p90 latency -- is the
same for every seed; the seed only picks the parameter values and the order.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Matrix = tuple[tuple[Fraction, ...], ...]
Exact = tuple[Fraction, Fraction]          # a Gaussian rational (re, im)

MEASURED_DEN = 10 ** 7                     # seven-digit "measured" frequencies
# Smallest ratio between two nonzero mode frequencies.  Closer frequencies can
# stall the program's Durand-Kerner iteration ("root iteration did not
# converge within 500 sweeps"): 2 of 2000 K = 4 draws fail at a ratio of
# 11/10, none of 10000 at 23/20.  Two failing inputs are kept as expected
# failures in tests/test_perfbench.py, so a fix of that defect shows.
MIN_RATIO = Fraction(23, 20)
# float-modes eigenvalues keep this share of the spectral radius apart, and
# this far from zero; 488 models with gaps between 0.01 and 0.05 all passed.
FLOAT_GAP = 0.01


@dataclass(frozen=True)
class Model:
    """One generated model with the ground truth the checks compare against.

    ``frequencies`` lists the exact eigenvalues of M with their algebraic
    multiplicities when the generator knows them (``families`` and
    ``exact-modes``); it is None on ``float-modes``, whose frequencies are
    irrational by construction.
    """

    index: int
    stratum: str
    argv: tuple[str, ...]
    a: Matrix
    v: Matrix
    g: Matrix
    b: Fraction | None = None
    ladder_states: int | None = None
    frequencies: tuple[tuple[Exact, int], ...] | None = None
    defective: bool = False

    @property
    def num_modes(self) -> int:
        return len(self.v)


# ---------------------------------------------------------------------------
# exact rational matrix helpers (independent of the program's arithmetic)
# ---------------------------------------------------------------------------

def _zeros(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


def _identity(n: int) -> list[list[Fraction]]:
    out = _zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def _matmul(a, b) -> list[list[Fraction]]:
    n, m, p = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(m)), Fraction(0))
             for j in range(p)] for i in range(n)]


def _transpose(a) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def _inverse(a) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over the rationals; ``a`` must be invertible."""
    n = len(a)
    aug = [list(a[i]) + _identity(n)[i] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _freeze(a) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in a)


def cayley_orthogonal(skew) -> list[list[Fraction]]:
    """Q = (I - S)(I + S)^-1, an exact rational orthogonal matrix for skew S."""
    n = len(skew)
    eye = _identity(n)
    minus = [[eye[i][j] - skew[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + skew[i][j] for j in range(n)] for i in range(n)]
    return _matmul(minus, _inverse(plus))


def adjoint_real_part(a: Matrix, v: Matrix, g: Matrix) -> list[list[Fraction]]:
    """R with M = i R: the 2K x 2K adjoint matrix of H, divided by i."""
    k = len(v)
    r = _zeros(2 * k)
    for i in range(k):
        for j in range(k):
            r[i][j] = -g[i][j]
            r[i][k + j] = v[i][j]
            r[k + i][j] = -a[i][j]
            r[k + i][k + j] = g[j][i]
    return r


def gaussian_rational_root_free(r) -> bool:
    """Whether no eigenvalue of the rational matrix ``r`` is a Gaussian rational.

    With q the common denominator, q*R has integer entries, so each q*mu is
    an algebraic integer; a Gaussian rational algebraic integer lies in Z[i].
    Rounding each float eigenvalue of q*R to the nearest Gaussian integer z
    and evaluating the exact characteristic polynomial at z therefore decides
    the question, as long as the float eigenvalues are accurate to well under
    1/2, which holds for the small denominators of ``float-modes``; larger
    ones raise ValueError.
    """
    q = math.lcm(*(x.denominator for row in r for x in row))
    qr = [[int(x * q) for x in row] for row in r]
    eigenvalues = np.linalg.eigvals(np.array(qr, dtype=float))
    if max(abs(eigenvalues)) > 2.0 ** 30:
        raise ValueError("denominators too large to round eigenvalues reliably")
    coeffs = _charpoly_by_interpolation(qr)
    for mu in eigenvalues:
        z = (round(mu.real), round(mu.imag))
        if _eval_gaussian(coeffs, z) == (0, 0):
            return False
    return True


def _det(a) -> Fraction:
    """Determinant by exact Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _charpoly_by_interpolation(a) -> list[int]:
    """Ascending integer coefficients of det(t I - A) for an integer matrix A.

    Evaluates the determinant at t = 0..n and solves for the coefficients
    (a Vandermonde system), deliberately unlike the program's recurrence.
    """
    n = len(a)
    values = []
    for t in range(n + 1):
        values.append(_det([[(t if i == j else 0) - a[i][j] for j in range(n)]
                            for i in range(n)]))
    vander = [[Fraction(t) ** p for p in range(n + 1)] for t in range(n + 1)]
    inv = _inverse(vander)
    coeffs = [sum(inv[i][j] * values[j] for j in range(n + 1)) for i in range(n + 1)]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _eval_gaussian(coeffs: list[int], z: tuple[int, int]) -> tuple[int, int]:
    re, im = 0, 0
    for c in reversed(coeffs):
        re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
    return re, im


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def render_expression(a: Matrix, v: Matrix, g: Matrix) -> str:
    """The DSL text of 1/2 p^T A p + 1/2 x^T V x + x^T G p (A, V symmetric)."""
    k = len(v)
    terms: list[tuple[Fraction, str]] = []
    for sym, mat in (("p", a), ("x", v)):
        for i in range(k):
            terms.append((mat[i][i] / 2, f"{sym}{i + 1}^2"))
            for j in range(i + 1, k):
                terms.append((mat[i][j], f"{sym}{i + 1}*{sym}{j + 1}"))
    for i in range(k):
        for j in range(k):
            terms.append((g[i][j], f"x{i + 1}*p{j + 1}"))
    out = ""
    for coeff, mono in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        text = f"{abs(coeff)}*{mono}" if abs(coeff) != 1 else mono
        out += f" {sign} {text}" if out else (f"-{text}" if coeff < 0 else text)
    return out


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

def _small_rational(rng: random.Random, lo: Fraction, hi: Fraction,
                    max_den: int) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def make_family(index: int, stratum: str, rng: random.Random) -> Model:
    """Bateman model at a small rational b = p/q in (0, 2] with --ladder-states N.

    The cost of a model depends on q (N = 2 takes about 17 % longer at q = 6
    than at q = 3), so q is not drawn but runs through 1..8, one value per
    block: every run then sees the same mix of denominators, and only the
    numerator p comes from the seed.
    """
    n_max = int(stratum[1:])
    q = 1 + index // len(BLOCKS["families"]) % 8
    b = Fraction(rng.randint(1, 2 * q), q)
    one, zero = Fraction(1), Fraction(0)
    a = ((one, zero), (zero, -one))
    g = ((zero, -b / 2), (-b / 2, zero))
    freqs = tuple(((Fraction(s), Fraction(t) * b / 2), 1)
                  for s in (-1, 1) for t in (-1, 1))
    return Model(
        index=index, stratum=stratum,
        argv=("--bateman", f"b={b}", "--ladder-states", str(n_max)),
        a=a, v=a, g=g, b=b, ladder_states=n_max, frequencies=freqs)


def _mode_frequencies(kind: str, k: int, rng: random.Random) -> list[Fraction]:
    omegas: list[Fraction] = []
    while len(omegas) < k:
        if kind == "measured":
            n = rng.randrange(5 * MEASURED_DEN // 10, 2 * MEASURED_DEN)
            if n % 2 == 0 or n % 5 == 0:
                continue
            w = Fraction(n, MEASURED_DEN)
        else:
            w = _small_rational(rng, Fraction(1, 4), Fraction(3), 6)
        if all(max(w, other) >= MIN_RATIO * min(w, other) for other in omegas):
            omegas.append(w)
    if kind == "free":
        omegas[rng.randrange(k)] = Fraction(0)
    return omegas


def _coupling_rotation(k: int, rng: random.Random) -> list[list[Fraction]]:
    """A rational orthogonal Q with no zero entry, so every mode couples.

    A Q with zeros (for K = 2, the quarter turn from S = +-1) leaves V partly
    diagonal, and such models cost a fraction of the coupled ones; mixing the
    two would make the latency of a stratum depend on the seed.
    """
    while True:
        skew = _zeros(k)
        for i in range(k):
            for j in range(i + 1, k):
                s = Fraction(rng.choice((-3, -2, 2, 3)), rng.randint(1, 3))
                skew[i][j], skew[j][i] = s, -s
        q = cayley_orthogonal(skew)
        if all(x != 0 for row in q for x in row):
            return q


def make_exact_modes(index: int, stratum: str, rng: random.Random) -> Model:
    """K oscillators 1/2 sum p^2 + 1/2 x^T Q D Q^T x with rational frequencies.

    Stratum ``K<k>-small`` uses small rationals, ``K<k>-measured`` seven-digit
    decimals (denominator 10^7) and ``K<k>-free`` one zero frequency, which
    makes the spectrum defective.
    """
    head, kind = stratum.split("-")
    k = int(head[1:])
    omegas = _mode_frequencies(kind, k, rng)
    return oscillators(index, stratum, omegas, _coupling_rotation(k, rng))


def oscillators(index: int, stratum: str, omegas: list[Fraction],
                q: list[list[Fraction]]) -> Model:
    """The exact-modes model with frequencies ``omegas`` rotated by ``q``."""
    k = len(omegas)
    d = _zeros(k)
    for i, w in enumerate(omegas):
        d[i][i] = w * w
    v = _freeze(_matmul(_matmul(q, d), _transpose(q)))
    a = _freeze(_identity(k))
    g = _freeze(_zeros(k))
    zero = Fraction(0)
    free = omegas.count(0)
    freqs = [((s * w, zero), 1) for w in omegas if w for s in (-1, 1)]
    if free:
        freqs.insert(0, ((zero, zero), 2 * free))
    return Model(
        index=index, stratum=stratum,
        argv=("--expr", render_expression(a, v, g)),
        a=a, v=v, g=g, frequencies=tuple(freqs), defective=bool(free))


def make_float_modes(index: int, stratum: str, rng: random.Random) -> Model:
    """K oscillators with a generic rational V and gyroscopic couplings.

    Draws are rejected until no frequency is a Gaussian rational and all of
    them are well separated from each other and from zero, so every model
    takes the float path and none sits on a numerical knife edge.
    """
    k = int(stratum[1:])
    while True:
        v = _zeros(k)
        g = _zeros(k)
        for i in range(k):
            v[i][i] = _small_rational(rng, Fraction(1, 4), Fraction(3), 4)
            for j in range(i + 1, k):
                c = _small_rational(rng, Fraction(-1), Fraction(1), 4)
                v[i][j] = v[j][i] = c
                s = _small_rational(rng, Fraction(-1), Fraction(1), 4)
                while s == 0:
                    s = _small_rational(rng, Fraction(-1), Fraction(1), 4)
                g[i][j], g[j][i] = s, -s
        a = _freeze(_identity(k))
        r = adjoint_real_part(a, _freeze(v), _freeze(g))
        mus = np.linalg.eigvals(np.array(r, dtype=float))
        scale = max(1.0, float(np.max(np.abs(mus))))
        gaps = [abs(mus[i] - mus[j]) for i in range(len(mus))
                for j in range(i + 1, len(mus))]
        if min(abs(mus)) < FLOAT_GAP or min(gaps) < FLOAT_GAP * scale:
            continue
        if gaussian_rational_root_free(r):
            break
    v, g = _freeze(v), _freeze(g)
    return Model(
        index=index, stratum=stratum,
        argv=("--expr", render_expression(a, v, g)), a=a, v=v, g=g)


# Strata per block, in rising order of cost at the seed commit.  The counts
# put the median and the p90 latency inside one homogeneous stratum each, well
# away from a boundary between size classes:
#   families     N0, N1 ~120 ms, N2 ~200 ms holds the median, N3 ~300 ms,
#                N4 ~330-590 ms (depending on b) holds the p90;
#   exact-modes  7 cheap models (K = 1, K = 2 free) below 30 ms, the K = 2
#                coupled models ~130 ms hold the median, K4-free ~250 ms,
#                K3-small ~460 ms holds the p90, K4-small ~1.4 s on top;
#   float-modes  K1 ~20 ms, K2 ~115 ms holds the median, K3 ~540 ms the p90,
#                K4 ~1.6 s on top.
# A block of each takes about 1.3 s, 4.2 s and 4.4 s on a 2-core x86-64 VM.
BLOCKS: dict[str, tuple[str, ...]] = {
    "families": ("N0", "N1", "N2", "N3", "N4"),
    "exact-modes": (
        ("K1-free",) + ("K1-small",) * 3 + ("K1-measured",) * 2 + ("K2-free",)
        + ("K2-small",) * 4 + ("K2-measured",) * 4
        + ("K4-free",) + ("K3-small",) * 3 + ("K4-small",)),
    "float-modes": ("K1",) * 6 + ("K2",) * 10 + ("K3",) * 3 + ("K4",),
}

_MAKERS = {
    "families": make_family,
    "exact-modes": make_exact_modes,
    "float-modes": make_float_modes,
}

WORKLOADS = tuple(BLOCKS)


def blocks(workload: str, seed: int):
    """Endless stream of model blocks; the same seed gives the same models."""
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    index = 0
    while True:
        strata = list(BLOCKS[workload])
        rng.shuffle(strata)
        block = []
        for stratum in strata:
            block.append(make(index, stratum, rng))
            index += 1
        yield block
