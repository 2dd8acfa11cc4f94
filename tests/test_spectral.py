"""Characteristic polynomials, root finding, and eigen decomposition."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian_quadratic
from test_acceptance import B_VALUES
from quadladder.adjoint import ComplexMatrix, adjoint_matrix, validate_quadratic
from quadladder.bateman import build_hd
from quadladder.errors import NumericFailureError
from quadladder import spectral
from quadladder.dsl import parse_to_polynomial
from quadladder.spectral import (
    PEAK_TIE_TOL,
    _adjugate_column,
    _normalized,
    _nullspace,
    _pderiv,
    _pdivmod,
    _pdeg,
    _pgcd,
    _pmonic,
    _psub,
    _sqrt_exact,
    characteristic_polynomial,
    eigen_decompose,
    roots,
    spectral_to_json,
    squarefree_factors,
)
from quadladder.wavefn import _negative_definite
from quadladder.weyl import ComplexRational, WeylPolynomial

I = ComplexRational(0, 1)


def poly_from_roots(root_list):
    """Ascending coefficients of prod (lambda - r), exact."""
    coeffs = [ComplexRational(1)]
    for r in root_list:
        nxt = [ComplexRational(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - r * c
        coeffs = nxt
    return coeffs


def poly_eval(p, z):
    """Exact Horner evaluation over Q(i): the oracles' evaluation."""
    acc = p[-1] if p else ComplexRational(0)
    for c in p[-2::-1]:
        acc = acc * z + c
    return acc


def bateman_roots(b):
    half = Fraction(b) / 2
    return [
        ComplexRational(-1, -half),
        ComplexRational(-1, half),
        ComplexRational(1, -half),
        ComplexRational(1, half),
    ]


def faddeev_leverrier(m):
    """det(M - lambda*I), ascending, by the Faddeev-LeVerrier trace
    recurrence: an O(n^4) oracle independent of the Hessenberg reduction."""
    n = m.dim
    a = m.exact
    zero = ComplexRational(0)
    coeffs = [zero] * n + [ComplexRational(1)]
    mk = [[zero] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        shift = coeffs[n - k + 1]
        mk = [[sum((a[i][t] * mk[t][j] for t in range(n)), zero)
               + (shift if i == j else zero) for j in range(n)]
              for i in range(n)]
        trace = sum((a[i][t] * mk[t][i] for i in range(n) for t in range(n)), zero)
        coeffs[n - k] = -trace / k
    return coeffs if n % 2 == 0 else [-c for c in coeffs]


def exact_matvec(rows, vec):
    return [
        sum((rows[r][c] * vec[c] for c in range(len(vec))), ComplexRational(0))
        for r in range(len(rows))
    ]


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_matches_root_product(self, b):
        matrix = adjoint_matrix(build_hd(b))
        assert list(characteristic_polynomial(matrix)) == poly_from_roots(bateman_roots(b))

    def test_identity_matrix(self):
        one = ComplexRational(1)
        m = ComplexMatrix(((one, ComplexRational(0)),
                           (ComplexRational(0), one)))
        assert list(characteristic_polynomial(m)) \
            == [ComplexRational(1), ComplexRational(-2), ComplexRational(1)]

    def test_nilpotent_matrix(self):
        zero = ComplexRational(0)
        m = ComplexMatrix(((zero, ComplexRational(1)), (zero, zero)))
        assert list(characteristic_polynomial(m)) \
            == [zero, zero, ComplexRational(1)]

    def test_poly_eval_is_exact(self):
        p = poly_from_roots([ComplexRational(2, 1), ComplexRational(-1)])
        assert poly_eval(p, ComplexRational(2, 1)) == ComplexRational(0)
        assert poly_eval(p, ComplexRational(0)) \
            == ComplexRational(2, 1) * ComplexRational(-1) * ComplexRational(1)


def sorted_complex(values):
    return sorted((complex(w) for w in values), key=lambda z: (z.real, z.imag))


class TestRoots:
    def test_simple_rational_roots(self):
        wanted = [ComplexRational(Fraction(1, 2)), ComplexRational(-3),
                  ComplexRational(0, 2)]
        got = roots(poly_from_roots(wanted))
        assert [m for *_, m in got] == [1, 1, 1]
        for (r, exact, _), w in zip(got, sorted_complex(wanted)):
            assert r == w and complex(exact) == w

    def test_repeated_roots_exact_multiplicity(self):
        p = poly_from_roots([ComplexRational(1)] * 3 + [ComplexRational(-2)] * 2)
        assert roots(p) == [(-2 + 0j, ComplexRational(-2), 2), (1 + 0j, ComplexRational(1), 3)]

    def test_near_degenerate_pair_keeps_total_multiplicity(self):
        # distinct exact roots 1e-12 apart: two discs, each certified and exact
        eps = Fraction(1, 10 ** 12)
        p = poly_from_roots([ComplexRational(1), ComplexRational(1 + eps)])
        got = roots(p)
        assert [(exact, m) for _, exact, m in got] == [
            (ComplexRational(1), 1), (ComplexRational(1 + eps), 1)]

    def test_separated_pair_stays_split(self):
        p = poly_from_roots([ComplexRational(1), ComplexRational(Fraction(101, 100))])
        assert [m for *_, m in roots(p)] == [1, 1]

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            roots([ComplexRational(3)])

    def test_roots_beyond_the_float_range_are_certified(self, tmp_path):
        # z^2 + 10^308 z + 1: no float scale holds both roots, -10^308 and
        # about -10^-308, which the fixed point holds on its own scale
        big = ComplexRational(10 ** 308)
        (large, large_exact, _), (small, small_exact, _) = roots(
            [ComplexRational(1), big, ComplexRational(1)])
        assert large == -1e308 and large_exact is None
        assert small == -1e-308 and small_exact is None
        # a model whose q is z^2 - (10^308 + 2) z + 1 reports both pairs of
        # frequencies, +-10^-154 and +-10^154, at full float precision
        expr = (f"1/2*p1^2 + {10 ** 308 + 1}/2*x1^2 + 1/2*p2^2 + 1/2*x2^2"
                f" + {10 ** 154}*x1*x2")
        spectrum = eigen_decompose(adjoint_matrix(validate_quadratic(parse_to_polynomial(expr))))
        assert [f.lam for f in spectrum.frequencies] == [-1e154, -1e-154, 1e-154, 1e154]

    def test_roots_where_float_horner_would_overflow(self):
        # z^3 + 10^300 z + 10^300: z^3 overflows floats near the roots of
        # modulus 10^150, which the integer fixed point never meets
        big = ComplexRational(10 ** 300)
        # roots -1 - 10^-300 + O(10^-600) and 1/2 +- i sqrt(10^300 - 3/4)
        got = roots([big, big, ComplexRational(0), ComplexRational(1)])
        assert [m for *_, m in got] == [1, 1, 1]
        for (r, exact, _), w in zip(got, [-1, 0.5 - 1e150j, 0.5 + 1e150j]):
            assert abs(r - w) <= 1e-12 * abs(w) and exact is None

    def test_roots_spanning_a_hundred_orders_of_magnitude(self):
        # Each root converges on its own scale: a stopping rule relative
        # to the largest root would leave the small ones about one unit off.
        wanted = [ComplexRational(0, 10 ** 100), ComplexRational(Fraction(1, 2), 1),
                  ComplexRational(-2, 3)]
        got = roots(poly_from_roots(wanted))
        assert [m for *_, m in got] == [1, 1, 1]
        assert [r for r, *_ in got] == sorted_complex(wanted)
        assert sorted_complex(exact for _, exact, _ in got) == sorted_complex(wanted)

    def test_sorted_by_real_then_imag(self, rng):
        for _ in range(10):
            wanted = [
                ComplexRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(2, 5))
            ]
            got = [r for r, *_ in roots(poly_from_roots(wanted))]
            assert got == sorted(got, key=lambda z: (z.real, z.imag))

    def test_irrational_root_beside_a_rational_is_not_exact(self):
        # q = (s - 1)^2 - 5/10^20: both roots 1 +- sqrt(5)/10^10 round to a
        # Gaussian rational near the disc; q(g/lead) != 0 refuses it
        q = [ComplexRational(1 - Fraction(5, 10 ** 20)), ComplexRational(-2),
             ComplexRational(1)]
        assert [exact for _, exact, _ in roots(q)] == [None, None]

    def test_a_root_below_the_fixed_point_is_not_the_rational_zero(self):
        # s^2 + 2^100 s - 1: the small root, 2^-100 (1 - 2^-200 + ...), is no
        # longer the grid point 0, since the fixed point reaches below it, and
        # it is not exact (q(0) = -1 != 0)
        q = [ComplexRational(-1), ComplexRational(2 ** 100), ComplexRational(1)]
        (_, large, _), (small_float, small, _) = roots(q)
        assert large is None and small is None and small_float == 2.0 ** -100

    def test_an_isolated_disc_never_claims_a_neighbouring_rational(self):
        # q = s^3 + 34 s^2 + s from random_hermitian_quadratic(Random(110503), 3):
        # the root near -0.0294 must not be decided as the exact root 0 while
        # its disc still reaches it
        q = [ComplexRational(0), ComplexRational(1), ComplexRational(34), ComplexRational(1)]
        got = roots(q)
        assert [exact for _, exact, _ in got] == [None, None, ComplexRational(0)]
        assert got[1][0] == pytest.approx(-17 + 12 * 2 ** 0.5, rel=1e-15)
        rng = random.Random(110503)
        matrix = adjoint_matrix(validate_quadratic(random_hermitian_quadratic(rng, 3)))
        assert characteristic_polynomial(matrix)[::2] == q


def values_at(ints, x, y, one):
    """one^n f(z) and one^(n-1) f'(z) at z = (x + iy)/one, as the iteration reads them."""
    slopes = [(k * a, k * b) for k, (a, b) in enumerate(ints)][1:]
    return spectral._gauss_horner(ints, x, y, one) + spectral._gauss_horner(slopes, x, y, one)


class TestInclusionDiscs:
    @pytest.mark.parametrize("offset", [3, 10, 40])
    def test_the_radius_reaches_a_root_beside_a_cluster(self, offset):
        # at z = 1 + 2^-(k - offset) the cluster looks like a triple root, so
        # 3|f/f'| is nearly the distance to the nearest root: a smaller bound
        # than the inclusion radius would miss every root
        k, bits = 80, 200  # (s - 1)^3 - 2^-3k: roots 1 + 2^-k w, w^3 = 1
        _, ints = spectral._common_denominator(
            [ComplexRational(-1 - Fraction(1, 2 ** (3 * k))), ComplexRational(3),
             ComplexRational(-3), ComplexRational(1)])
        one = 1 << bits
        x = one + (1 << (bits - k + offset))
        radius = spectral._disc_radius(*values_at(ints, x, 0, one), 3)
        nearest = min(abs(complex(x - one, 0) / 2 ** (bits - k) - w)
                      for w in (1, complex(-0.5, 3 ** 0.5 / 2), complex(-0.5, -3 ** 0.5 / 2)))
        assert nearest * 2 ** (bits - k) <= radius < 1.15 * nearest * 2 ** (bits - k)

    def test_overlapping_discs_are_not_isolated(self):
        # (s - 1)(s - 2) with both iterates on the root 1: each disc is tiny
        # and holds a root, but the two discs are one disc, and s = 2 is in none
        bits = 80
        one = 1 << bits
        _, ints = spectral._common_denominator(
            poly_from_roots([ComplexRational(1), ComplexRational(2)]))
        at_one = [(one, 0), (one, 0)]
        values = [values_at(ints, x, y, one) for x, y in at_one]
        assert spectral._isolated(at_one, values, 1, bits) is None
        apart = [(one, 0), (2 * one, 0)]
        values = [values_at(ints, x, y, one) for x, y in apart]
        assert spectral._isolated(apart, values, 1, bits) == [1, 1]


# Reference root finder for the oracle test, a different algorithm on the
# same exact decisions: Durand-Kerner in floats with a float residual gate,
# then exact Newton refinement of each root in integer fixed point.
ORACLE_TOL, ORACLE_SWEEPS, ORACLE_STEPS = 1e-9, 500, 16


def _oracle_eval(p, z):
    acc = 0j
    for c in reversed(p):
        acc = acc * z + complex(c)
    return acc


def _oracle_scaled(p, e):
    deg = len(p) - 1
    return [complex(c * Fraction(2) ** (e * (k - deg))) for k, c in enumerate(p)] if e else p


def _oracle_durand_kerner(factor):
    coeffs = [complex(c) for c in factor]
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0]], 0
    radius = 2.0 * max(abs(coeffs[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
    e = 0 if radius < 2.0 ** (1000 / deg) else max(0, math.frexp(radius)[1] - 1)
    if e:
        coeffs, radius = _oracle_scaled(factor, e), math.ldexp(radius, -e)
    floor = 2.0 ** -e
    z = [radius * cmath.exp(1j * (2.0 * cmath.pi * j / deg + 0.4)) for j in range(deg)]
    for _ in range(ORACLE_SWEEPS):
        converged = True
        for j in range(deg):
            num = _oracle_eval(coeffs, z[j])
            den = 1.0 + 0j
            for k in range(deg):
                if k != j:
                    den *= z[j] - z[k]
            if den == 0:
                den = 1e-300
            step = num / den
            z[j] -= step
            converged = converged and abs(step) <= 1e-14 * max(floor, abs(z[j]))
        if not all(map(cmath.isfinite, z)):
            raise NumericFailureError("root iteration produced a non-finite iterate")
        if converged:
            break
    return z, e


def _oracle_residual(p, z, floor):
    zm = max(floor, abs(z))
    scale = max(floor ** (len(p) - 1), sum(abs(complex(c)) * zm ** k for k, c in enumerate(p)))
    return abs(_oracle_eval(p, z)) / scale if scale >= 2.0 ** -1022 else float("inf")


def _oracle_float_roots(p):
    found = []
    for factor, mult in squarefree_factors(p):
        ws, e = _oracle_durand_kerner(factor)
        scaled = _oracle_scaled(p, e)
        found += [(w, e, mult, _oracle_residual(scaled, w, 2.0 ** -e)) for w in ws]
    if any(not x < ORACLE_TOL for *_, x in found):
        raise NumericFailureError("root residuals exceed tolerance")
    found = [(complex(math.ldexp(w.real, e), math.ldexp(w.imag, e)), mult)
             for w, e, mult, _ in found]
    found.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return found


def _oracle_refine(q, z, mult):
    _, ints = spectral._common_denominator(q)
    lead, deg = abs(ints[-1][0]), len(ints) - 1
    slopes = [(k * c, 0) for k, (c, _) in enumerate(ints)][1:]
    bits = lead.bit_length() + 64 + 8
    one = 1 << bits
    x, y = round(Fraction(z.real) * one), round(Fraction(z.imag) * one)
    for _ in range(ORACLE_STEPS):
        ax, ay = spectral._gauss_horner(ints, x, y, one)
        bx, by = spectral._gauss_horner(slopes, x, y, one)
        na, nb = ax * ax + ay * ay, bx * bx + by * by
        if not na:
            break
        if not nb:
            return complex(x / one, y / one), None
        x -= (2 * mult * (ax * bx + ay * by) + nb) // (2 * nb)
        y -= (2 * mult * (ay * bx - ax * by) + nb) // (2 * nb)
        if (64 * deg * deg * lead * lead * na < nb * one * one
                and (4 * deg * deg * na << 128) < nb * max(one * one, x * x + y * y)):
            break
    else:
        return complex(x / one, y / one), None
    gx, gy = (2 * lead * x + one) // (2 * one), (2 * lead * y + one) // (2 * one)
    ex, ey = lead * x - gx * one, lead * y - gy * one
    if ((ex * ex + ey * ey) * nb > 4 * deg * deg * na * lead * lead
            or spectral._gauss_horner(ints, gx, gy, lead) != (0, 0)):
        return complex(x / one, y / one), None
    near = ComplexRational(Fraction(gx, lead), Fraction(gy, lead))
    return complex(near), near


def oracle_roots(q):
    """(float, exact or None, multiplicity) by the two-stage reference path."""
    return [(*_oracle_refine(q, z, m), m) for z, m in _oracle_float_roots(q)]


rationals = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 3))


def _real_factor(atoms):
    """prod (s - r) (s^2 + b s + c) over the atoms (r,) and (b, c), dropping
    repeats and quadratics with rational roots: a real square-free
    polynomial with rational, irrational and conjugate-pair roots."""
    p = [ComplexRational(1)]
    for atom in dict.fromkeys(atoms):
        if len(atom) == 2 and fraction_sqrt_exact(ComplexRational(atom[0] ** 2 - 4 * atom[1])):
            continue
        f = [ComplexRational(-atom[0]), ComplexRational(1)] if len(atom) == 1 else \
            [ComplexRational(atom[1]), ComplexRational(atom[0]), ComplexRational(1)]
        if len(p) + len(f) - 2 > 8:
            break
        p = [sum((p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f)),
                 ComplexRational(0)) for k in range(len(p) + len(f) - 1)]
    return p


real_factors = st.lists(st.tuples(rationals) | st.tuples(rationals, rationals),
                        min_size=1, max_size=8).map(_real_factor).filter(
    lambda p: len(p) > 2 and squarefree_factors(p) == [(p, 1)]
    and max(max(abs(c.re.numerator), c.re.denominator) for c in p) <= 10 ** 30)


def _matches(new, old):
    """Pairs of (new, oracle) roots matched by nearest float."""
    old = list(old)
    pairs = []
    for root in new:
        best = min(old, key=lambda o: abs(o[0] - root[0]))
        old.remove(best)
        pairs.append((root, best))
    return pairs


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(real_factors)
def test_roots_match_the_two_stage_reference(q):
    new = roots(q)
    for (z, exact, m), (w, old_exact, old_m) in _matches(new, oracle_roots(q)):
        assert exact == old_exact and m == old_m == 1
        assert z == w or abs(z - w) <= 2.0 ** -60 * abs(w)
        if exact is not None:
            assert not poly_eval(q, exact) and z == complex(exact)


class TestEigenDecompose:
    def test_bateman_simple_spectrum(self):
        spectrum = eigen_decompose(adjoint_matrix(build_hd(Fraction(1))))
        assert not spectrum.defective
        lams = [f.lam_exact for f in spectrum.frequencies]
        assert lams == bateman_roots(Fraction(1))
        for f in spectrum.frequencies:
            assert f.algebraic_multiplicity == 1
            assert f.geometric_multiplicity == 1
            assert len(f.eigenvectors) == 1

    def test_bateman_eigenvectors_verify_exactly(self):
        matrix = adjoint_matrix(build_hd(Fraction(1, 2)))
        spectrum = eigen_decompose(matrix)
        for f in spectrum.frequencies:
            assert f.lam_exact is not None
            for vec in f.eigenvectors_exact:
                assert vec is not None
                image = exact_matvec(matrix.exact, list(vec))
                assert image == [f.lam_exact * c for c in vec]

    def test_undamped_case_is_degenerate_not_defective(self):
        spectrum = eigen_decompose(adjoint_matrix(build_hd(Fraction(0))))
        assert not spectrum.defective
        assert [f.lam_exact for f in spectrum.frequencies] \
            == [ComplexRational(-1), ComplexRational(1)]
        for f in spectrum.frequencies:
            assert f.algebraic_multiplicity == 2
            assert f.geometric_multiplicity == 2
            assert len(f.eigenvectors) == 2

    def test_free_particle_is_defective(self):
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(Fraction(1, 2) * (p * p))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        assert spectrum.defective
        f = spectrum.frequencies[0]
        assert f.lam_exact == ComplexRational(0)
        assert f.algebraic_multiplicity == 2
        assert f.geometric_multiplicity == 1

    def test_eigenvector_normalized_to_unit_peak(self):
        spectrum = eigen_decompose(adjoint_matrix(build_hd(Fraction(1))))
        for f in spectrum.frequencies:
            for vec in f.eigenvectors:
                peak = max(abs(c) for c in vec)
                assert abs(peak - 1.0) < 1e-12
                first = next(c for c in vec if abs(abs(c) - peak) < 1e-12)
                assert abs(first - 1.0) < 1e-12

    def test_frequency_pairing_on_random_hamiltonians(self, rng):
        for _ in range(25):
            ham = validate_quadratic(random_hermitian_quadratic(rng, rng.choice((1, 2))))
            spectrum = eigen_decompose(adjoint_matrix(ham))
            lams = [f.lam for f in spectrum.frequencies]
            for lam in lams:
                partner = -lam.conjugate()
                assert min(abs(other - partner) for other in lams) < 1e-8

    def test_residuals_on_random_hamiltonians(self, rng):
        for _ in range(25):
            ham = validate_quadratic(random_hermitian_quadratic(rng, rng.choice((1, 2))))
            matrix = adjoint_matrix(ham)
            spectrum = eigen_decompose(matrix)
            scale = max(1.0, matrix.norm_inf())
            total_geo = 0
            for f in spectrum.frequencies:
                assert 1 <= f.geometric_multiplicity <= f.algebraic_multiplicity
                total_geo += f.geometric_multiplicity
                for vec in f.eigenvectors:
                    image = np.array(matrix.entries) @ np.array(vec)
                    residual = max(
                        abs(iv - f.lam * v) for iv, v in zip(image, vec))
                    assert residual < 1e-10 * scale
            assert sum(f.algebraic_multiplicity for f in spectrum.frequencies) \
                == matrix.dim
            assert spectrum.defective == (total_geo < matrix.dim)

    def test_cluster_tolerance_is_honored(self):
        # at b = 1e-6 the four frequencies come in pairs 1e-6 apart; the
        # exact roots of q keep all four apart
        matrix = adjoint_matrix(build_hd(Fraction(1, 1000000)))
        tight = eigen_decompose(matrix)
        assert [f.algebraic_multiplicity for f in tight.frequencies] == [1, 1, 1, 1]

    def test_non_hamiltonian_matrix_is_refused(self):
        one, zero = ComplexRational(1), ComplexRational(0)
        m = ComplexMatrix(((one, zero), (zero, ComplexRational(2))))
        with pytest.raises(NumericFailureError, match="not symmetric"):
            eigen_decompose(m)


class TestNullspace:
    @pytest.mark.parametrize("two", [2.0, math.nextafter(2.0, 0.0),
                                     math.nextafter(2.0, 3.0)])
    def test_equal_moduli_normalize_at_the_first(self, two):
        # null vector (i, 1): both entries have modulus 1, and a 1-ulp
        # change to the pivot row must not move the normalization to the second
        basis = _nullspace([[1, -1j], [2, -two * 1j]], 1)
        assert len(basis) == 1
        assert basis[0][0] == 1
        assert abs(abs(basis[0][1]) - 1) < 1e-15

    @pytest.mark.parametrize("rank, want", [(2, []), (1, [[0, 1]])])
    def test_float_elimination_takes_the_given_rank(self, rank, want):
        # no pivot size ends it: 1e-14 is a pivot when the rank says so
        assert _nullspace([[1.0, 0j], [0j, 1e-14]], rank) == want


def _old_float_nullspace(a, rank):
    """_nullspace's float branch as it was, with its pivot search of one
    key call per cell (kept verbatim as the reference for pivot choice)."""
    m = [list(r) for r in a]
    n = len(m)
    pivot_cols, free_cols = [], list(range(n))
    for row in range(rank):
        cells = ((r, c) for c in free_cols for r in range(row, n))
        best, col = max(cells, key=lambda rc: abs(m[rc[0]][rc[1]]))
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
        free_cols.remove(col)
    basis = []
    for free in free_cols:
        v = [0j] * n
        v[free] = 1 + 0j
        for r, col in enumerate(pivot_cols):
            v[col] = -m[r][free]
        basis.append(_normalized(v))
    return basis


@st.composite
def tied_float_matrices(draw):
    """Complex matrices over a few values whose moduli repeat (1, 2, sqrt 2),
    so most pivot searches meet ties, with a rank up to n."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([0j, 1, -1, 1j, -1j, 2, -2j, 1 + 1j, 1 - 1j, -1 - 1j])
    a = [[complex(draw(values)) for _ in range(n)] for _ in range(n)]
    return a, draw(st.integers(0, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=tied_float_matrices())
def test_float_pivots_match_the_old_search(case):
    # the first largest modulus in column-then-row order, ties included
    a, rank = case
    assert _nullspace(a, rank) == _old_float_nullspace(a, rank)


def _gaussian(parts):
    re, im = parts
    return ComplexRational(re, im)


@st.composite
def known_rank_matrices(draw):
    """A = P L D U Q over Q(i): L, U unit triangular, D with r nonzero
    entries, P, Q permutations, so rank A = r exactly."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    small = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(_gaussian)
    pivots = st.sampled_from([Fraction(v) for v in (1, -1, 2, -2)]
                             + [Fraction(1, 3), Fraction(-3, 2)])
    zero, one = ComplexRational(0), ComplexRational(1)
    lower = [[draw(small) if j < i else (one if i == j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[draw(small) if j > i else (one if i == j else zero)
              for j in range(n)] for i in range(n)]
    diag = [ComplexRational(draw(pivots)) if i < r else zero for i in range(n)]
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    a = [[sum((lower[rows[i]][k] * diag[k] * upper[k][cols[j]] for k in range(n)),
              zero) for j in range(n)] for i in range(n)]
    return a, r


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=known_rank_matrices())
def test_nullspace_against_numpy(case):
    exact, rank = case
    a = [[complex(v) for v in row] for row in exact]
    n = len(a)
    scale = max(1.0, max(abs(z) for row in a for z in row))
    basis = _nullspace(a, rank)
    assert np.linalg.matrix_rank(np.array(a)) == rank
    assert len(basis) == n - rank
    if basis:
        assert np.linalg.matrix_rank(np.array(basis)) == n - rank
    for v in basis:
        assert max(abs(np.array(a) @ np.array(v))) <= 1e-10 * scale
        floor = (1 - PEAK_TIE_TOL) * max(abs(z) for z in v)
        lead = next(z for z in v if abs(z) >= floor)
        assert lead.real == 1 and abs(lead.imag) < 1e-15


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=known_rank_matrices())
def test_exact_nullspace_has_exact_rank(case):
    a, rank = case
    basis = _nullspace(a)
    assert len(basis) == len(a) - rank
    for v in basis:
        assert not any(exact_matvec(a, v))
        assert all(isinstance(z, ComplexRational) for z in v)


@st.composite
def gaussian_matrices(draw):
    """Square matrices over Q(i) with many zeros, so that leading blocks
    meet zero rows and columns; optionally with the first subdiagonal entry
    forced to zero."""
    n = draw(st.integers(1, 8))
    part = st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, 2)]
                           + [Fraction(1, 2), Fraction(-2, 3)])
    rows = [[ComplexRational(draw(part), draw(part)) for _ in range(n)]
            for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[1][0] = ComplexRational(0)
    return ComplexMatrix(rows)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=gaussian_matrices())
def test_charpoly_matches_faddeev_leverrier(m):
    assert characteristic_polynomial(m) == faddeev_leverrier(m)


def hessenberg_over_q_i(m):
    """det(M - lambda*I), ascending, by the Hessenberg reduction over Q(i)
    itself (Cohen, Alg. 2.2.9) and its minor recurrence: an oracle that
    shares no step with the integer recurrence."""
    zero, one = ComplexRational(0), ComplexRational(1)
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
    minors = [[one]]
    for k in range(n):
        p = [zero] + minors[k]
        for j, c in enumerate(minors[k]):
            p[j] = p[j] - h[k][k] * c
        chain = one
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


@st.composite
def wide_matrices(draw):
    """Real, i times real, or general Gaussian matrices (n <= 6) whose
    numerators and denominators run up to 10^30, so that the coefficients
    run from one machine word to thousands of bits; many zeros leave zero
    rows and columns in the leading blocks."""
    n = draw(st.integers(1, 6))
    digits = draw(st.integers(0, 30))
    part = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-10 ** digits, 10 ** digits), st.integers(1, 10 ** digits)))
    re_on, im_on = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))  # real, i*real, Gaussian
    return ComplexMatrix([[ComplexRational(re_on * draw(part), im_on * draw(part))
                           for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=wide_matrices())
def test_charpoly_matches_the_q_i_hessenberg(m):
    assert characteristic_polynomial(m) == hessenberg_over_q_i(m)


def _scalar(v, unit):
    """v times unit, for unit in {1, 1j}, as a ComplexRational."""
    return ComplexRational(*((0, v) if unit == 1j else (v, 0)))


def _diagonal(values, unit=1):
    zero = ComplexRational(0)
    return ComplexMatrix([[_scalar(v, unit) if i == j else zero for j in range(len(values))]
                          for i, v in enumerate(values)])


def _power_poly(r, n, unit=1):
    """det(M - t I) for M = unit * r * I: (unit r - t)^n, ascending."""
    return [ComplexRational(math.comb(n, k) * (-1) ** k) * _scalar(r, unit) ** (n - k)
            for k in range(n + 1)]


class TestModularBound:
    """The coefficients of det(tI - B) are at most (1 + R)^n in modulus, and
    they are exact at every size, of either sign, up to the size limit."""

    # For n = 3, 2 (1 + R)^3 passes 2^61 - 1 at R = 2^20 - 1, and R = 1200000
    # has (1 + R)^3 < 2^61 - 1 < 2 R^3: sizes around one machine word.
    @pytest.mark.parametrize("r", [2 ** 20 - 2, 2 ** 20 - 1, 2 ** 20, 1200000, 2 ** 40, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("unit", [1, 1j])
    def test_diagonal_has_c0_equal_to_r_to_the_n(self, r, n, unit):
        for v in (r, -r):
            got = characteristic_polynomial(_diagonal([v] * n, unit))
            assert got[0] == _scalar(v, unit) ** n  # det M, of modulus R^n
            assert got == _power_poly(v, n, unit)

    # 2 (1 + |c|) < 2^61 - 1 exactly when |c| <= 2^60 - 2: coefficients just
    # inside and just outside +-(2^61 - 1)/2, and far past it.
    @pytest.mark.parametrize("c", [2 ** 60 - 2, 2 ** 60 - 1, 2 ** 60, 2 ** 60 + 1,
                                   2 ** 88, 2 ** 89])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_by_one_near_half_the_prime(self, c, sign):
        for unit in (1, 1j):
            m = _diagonal([sign * c], unit)
            assert characteristic_polynomial(m) == hessenberg_over_q_i(m) \
                == _power_poly(sign * c, 1, unit)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zero_matrix(self, n):
        zero = ComplexRational(0)
        got = characteristic_polynomial(ComplexMatrix([[zero] * n for _ in range(n)]))
        assert got == [zero] * n + [ComplexRational((-1) ** n)]

    def test_zero_subdiagonal_forces_a_pivot_search(self):
        rows = [[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        for re, im in ((1, 0), (0, 1), (1, 1)):  # real, i * real, Gaussian
            m = ComplexMatrix([[ComplexRational(re * v, im * v) for v in row]
                               for row in rows])
            assert characteristic_polynomial(m) == hessenberg_over_q_i(m) \
                == faddeev_leverrier(m)

    def test_odd_negative_definite_quad(self):
        """A 3 x 3 real symmetric S, as _negative_definite passes it."""
        s = [[Fraction(-3), Fraction(1, 2), Fraction(0)],
             [Fraction(1, 2), Fraction(-5, 3), Fraction(2, 7)],
             [Fraction(0), Fraction(2, 7), Fraction(-1, 9)]]
        m = ComplexMatrix(s)
        char = characteristic_polynomial(m)
        assert char == hessenberg_over_q_i(m) == faddeev_leverrier(m)
        assert max(np.linalg.eigvalsh(np.array(s, dtype=float))) < 0
        assert _negative_definite(s)
        s[2][2] = Fraction(1, 9)
        assert max(np.linalg.eigvalsh(np.array(s, dtype=float))) > 0
        assert not _negative_definite(s)

    def test_bound_past_the_last_prime_raises(self):
        # pairwise coprime denominators of ~237,000 bits each: d*M has
        # R ~ 2^475,000 and (1 + R)^3 ~ 2^1,430,000, past 2^1398269 - 1
        dens = [3 ** 150000, 5 ** 102000, 7 ** 84700]
        m = ComplexMatrix([[ComplexRational(Fraction(1, q)) if i == j else 0
                            for j, _ in enumerate(dens)] for i, q in enumerate(dens)])
        with pytest.raises(NumericFailureError,
                           match=r"bound of \d+ bits exceeds the limit of 1398269 bits"):
            characteristic_polynomial(m)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 4))
def test_exact_frequencies_are_roots_and_match_numpy(seed, k):
    rng = random.Random(seed)
    matrix = adjoint_matrix(validate_quadratic(random_hermitian_quadratic(rng, k)))
    char = characteristic_polynomial(matrix)
    assert char == faddeev_leverrier(matrix)
    spectrum = eigen_decompose(matrix)
    eig = list(np.linalg.eigvals(np.array(matrix.entries)))
    scale = max(1.0, matrix.norm_inf())
    for f in spectrum.frequencies:
        if f.lam_exact is not None:
            assert not poly_eval(char, f.lam_exact)
            assert f.lam == complex(f.lam_exact)
        # the mean of a cluster of float eigenvalues is well conditioned
        # even where the cluster itself is a defective eigenvalue
        near = sorted(eig, key=lambda z: abs(z - f.lam))[:f.algebraic_multiplicity]
        for z in near:
            eig.remove(z)
        assert abs(sum(near) / len(near) - f.lam) < 1e-7 * scale
        assert max(abs(z - f.lam) for z in near) < 1e-2 * scale
    assert not eig
    assert len({f.lam for f in spectrum.frequencies}) == len(spectrum.frequencies)


def _inverse(a):
    """Inverse of an invertible Fraction matrix by Gauss-Jordan elimination."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [z / m[c][c] for z in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [z - m[r][c] * w for z, w in zip(m[r], m[c])]
    return [row[n:] for row in m]


def rotated_oscillators(omegas, skew):
    """1/2 sum p_i^2 + 1/2 x^T Q D Q^T x with D = diag(omega^2) and the
    Cayley rotation Q = (I - S)(I + S)^-1 of the skew matrix S."""
    k = len(omegas)
    eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    s = [[Fraction(skew.get((i, j), 0) - skew.get((j, i), 0)) for j in range(k)]
         for i in range(k)]
    minus = [[e - z for e, z in zip(er, sr)] for er, sr in zip(eye, s)]
    plus = [[e + z for e, z in zip(er, sr)] for er, sr in zip(eye, s)]
    inv = _inverse(plus)
    q = [[sum(minus[i][t] * inv[t][j] for t in range(k)) for j in range(k)]
         for i in range(k)]
    v = [[sum(q[i][t] * omegas[t] ** 2 * q[j][t] for t in range(k))
          for j in range(k)] for i in range(k)]
    unit = (0,) * (2 * k)

    def word(*flats):
        exps = list(unit)
        for flat in flats:
            exps[flat] += 1
        return tuple(exps)

    terms = {word(k + i, k + i): Fraction(1, 2) for i in range(k)}
    for i in range(k):
        terms[word(i, i)] = v[i][i] / 2
        for j in range(i + 1, k):
            terms[word(i, j)] = v[i][j]
    return validate_quadratic(WeylPolynomial(k, terms))


ADJUGATE_MODELS = {
    **{f"bateman-{b}": build_hd(b) for b in B_VALUES},
    "coupled_k2_exact": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 1/2*p2^2 + 5/4*x1^2 + 3/2*x1*x2 + 5/4*x2^2")),
    "measured_frequency_exact": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 325247554613641/200000000000000*x1^2")),
    "cayley-k3": rotated_oscillators(
        [Fraction(1), Fraction(3, 2), Fraction(2, 3)], {(0, 1): Fraction(1, 2),
                                                       (1, 2): Fraction(1, 3),
                                                       (0, 2): 2}),
    "cayley-k4": rotated_oscillators(
        [Fraction(1), Fraction(1, 2), Fraction(5, 4), Fraction(7, 3)],
        {(0, 1): 1, (0, 3): Fraction(2, 5), (1, 2): Fraction(-1, 3),
         (2, 3): Fraction(3, 4), (1, 3): 2}),
    # 40-digit denominators: column entries of about 4,700 bits, past the float range
    "cayley-k3-large": rotated_oscillators(
        [Fraction(10 ** 40 + 1, 10 ** 40), Fraction(3 * 10 ** 40 + 7, 2 * 10 ** 40),
         Fraction(2 * 10 ** 40 - 3, 3 * 10 ** 40)],
        {(0, 1): Fraction(10 ** 40 + 3, 10 ** 40), (1, 2): Fraction(1, 3), (0, 2): 2}),
}


def _shifted(m, lam):
    return [[z - lam if i == j else z for j, z in enumerate(row)]
            for i, row in enumerate(m.exact)]


@pytest.fixture
def nullspace_calls(monkeypatch):
    """The rank of each eigen_decompose fall-back to _nullspace (None: exact)."""
    calls = []

    def counted(a, rank=None):
        calls.append(rank)
        return _nullspace(a, rank)

    monkeypatch.setattr(spectral, "_nullspace", counted)
    return calls


def integer_matrix(matrix):
    """B = d*M from the integer form, dense, as ComplexRational rows."""
    d, rows = matrix.integer_form
    dense = [[ComplexRational(0)] * matrix.dim for _ in rows]
    for out, cells in zip(dense, rows):
        for j, a, b in cells:
            out[j] = ComplexRational(a, b)
    return d, dense


def column_at(column, d, lam):
    """adj(lam I - M) e_0 from the integer column: its entries at u = d*lam,
    by exact Horner over Q(i), over d^(n-1)."""
    return [poly_eval([ComplexRational(a, b) for a, b in entry], lam * d) / d ** (len(column) - 1)
            for entry in column]


class TestAdjugateColumn:
    """A simple exact lambda takes adj(uI - B) e_0 at u = d*lambda, a multiple
    of adj(lambda I - M) e_0, as its eigenvector."""

    @pytest.mark.parametrize("name", ADJUGATE_MODELS)
    def test_matches_the_elimination_basis(self, name, nullspace_calls):
        matrix = adjoint_matrix(ADJUGATE_MODELS[name])
        spectrum = eigen_decompose(matrix)
        chi = characteristic_polynomial(matrix)  # det(M - tI) = det(tI - M), n even
        column = _adjugate_column(matrix, chi)
        for f in spectrum.frequencies:
            assert f.lam_exact is not None and f.algebraic_multiplicity == 1
            v = column_at(column, matrix.integer_form[0], f.lam_exact)
            assert exact_matvec(matrix.exact, v) == [f.lam_exact * z for z in v]
            want = _nullspace(_shifted(matrix, f.lam_exact))
            assert [_normalized(v)] == want
            assert f.eigenvectors_exact == (tuple(want[0]),)
        assert nullspace_calls == []

    def test_column_has_the_adjugate_identity(self):
        # (uI - B) sum u^k b_k = det(uI - B) e_0, coefficient by coefficient,
        # with det(uI - B) = sum d^(n-k) a_k u^k for chi = det(tI - M) = sum a_k t^k
        matrix = adjoint_matrix(ADJUGATE_MODELS["cayley-k3"])
        d, b = integer_matrix(matrix)
        assert b == [[z * d for z in row] for row in matrix.exact]
        chi = characteristic_polynomial(matrix)
        column = [[ComplexRational(x, y) for x, y in v]
                  for v in zip(*_adjugate_column(matrix, chi))]  # b_0 .. b_(n-1)
        n = matrix.dim
        zero = ComplexRational(0)
        for k in range(n + 1):
            lower = column[k - 1] if k else [zero] * n
            here = exact_matvec(b, column[k]) if k < n else [zero] * n
            assert [a - b for a, b in zip(lower, here)] \
                == [chi[k] * d ** (n - k) if i == 0 else zero for i in range(n)]

    def test_vanishing_column_falls_back_to_elimination(self, nullspace_calls):
        # x1 is decoupled from mode 2, so adj(lambda I - M) e_0 vanishes at
        # the two frequencies of mode 2
        matrix = adjoint_matrix(validate_quadratic(parse_to_polynomial(
            "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 2*x2^2")))
        spectrum = eigen_decompose(matrix)
        column = _adjugate_column(matrix, characteristic_polynomial(matrix))
        vanishing = [f.lam_exact for f in spectrum.frequencies
                     if not any(column_at(column, matrix.integer_form[0], f.lam_exact))]
        assert set(vanishing) == {ComplexRational(-2), ComplexRational(2)}
        assert nullspace_calls == [None, None]  # exact elimination
        assert len(spectrum.frequencies) == 4 and not spectrum.defective
        for f in spectrum.frequencies:
            want = _nullspace(_shifted(matrix, f.lam_exact))
            assert f.eigenvectors_exact == tuple(tuple(v) for v in want)
            assert f.eigenvectors == tuple(tuple(complex(z) for z in v) for v in want)
            assert f.geometric_multiplicity == 1

    @pytest.mark.parametrize("ham, mults, defective", [
        (validate_quadratic(parse_to_polynomial("1/2*p1^2")), [(2, 1)], True),
        (build_hd(Fraction(0)), [(2, 2), (2, 2)], False),
    ], ids=["free_particle_defective", "bateman-0"])
    def test_repeated_roots_take_elimination(self, ham, mults, defective,
                                             nullspace_calls):
        spectrum = eigen_decompose(adjoint_matrix(ham))
        assert [(f.algebraic_multiplicity, f.geometric_multiplicity)
                for f in spectrum.frequencies] == mults
        assert spectrum.defective is defective
        assert nullspace_calls == [None for _ in mults]  # exact elimination


# ---------------------------------------------------------------------------
# oracles: the Q(i) code that the integer and modular paths replaced
# ---------------------------------------------------------------------------

def qi_adjugate_column(m, chi):
    """adj(tI - M) e_0 = sum t^k b_k over Q(i), entry by entry as polynomials
    in t (the column before the integer form): b_(n-1) = e_0 and
    b_(k-1) = M b_k + a_k e_0."""
    n = m.dim
    zero = ComplexRational(0)
    rows = [[(j, z) for j, z in enumerate(row) if z] for row in m.exact]
    b = [ComplexRational(1)] + [zero] * (n - 1)
    column = [b]
    for k in range(n - 1, 0, -1):
        b = [sum((z * b[j] for j, z in row), zero) for row in rows]
        b[0] = b[0] + chi[k]
        column.append(b)
    return [list(entry) for entry in zip(*reversed(column))]


def qi_column_basis(m, chi, lam):
    """The eigenvector the Q(i) column gave a simple exact lambda: the column
    at lambda by poly_eval, normalized, or exact elimination where it vanishes."""
    v = [poly_eval(p, lam) for p in qi_adjugate_column(m, chi)]
    return [_normalized(v)] if any(v) else _nullspace(_shifted(m, lam))


def yun_squarefree_factors(p):
    """Yun's square-free decomposition over Q(i) alone (squarefree_factors
    before the modular test)."""
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
    out = []
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


def assert_matches_the_oracles(matrix):
    """The integer column is d^(n-1-k) times the Q(i) one, coefficient by
    coefficient; every simple exact lambda gets the oracle's eigenvector; the
    square-free factors of q, q^2 and chi are Yun's."""
    chi = characteristic_polynomial(matrix)
    if matrix.dim % 2:
        chi = [-c for c in chi]
    d, n = matrix.integer_form[0], matrix.dim
    assert [[ComplexRational(a, b) for a, b in entry]
            for entry in _adjugate_column(matrix, chi)] \
        == [[c * d ** (n - 1 - k) for k, c in enumerate(entry)]
            for entry in qi_adjugate_column(matrix, chi)]
    for f in eigen_decompose(matrix).frequencies:
        if f.lam_exact is not None and f.algebraic_multiplicity == 1:
            assert f.eigenvectors_exact \
                == tuple(map(tuple, qi_column_basis(matrix, chi, f.lam_exact)))
    q = chi[::2]
    square = [sum((q[i] * q[k - i] for i in range(max(0, k - len(q) + 1), min(k, len(q) - 1) + 1)),
                  ComplexRational(0)) for k in range(2 * len(q) - 1)]
    for p in (q, square, chi):
        assert squarefree_factors(p) == yun_squarefree_factors(p)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_integer_paths_match_the_q_i_oracles(seed, k):
    assert_matches_the_oracles(adjoint_matrix(validate_quadratic(
        random_hermitian_quadratic(random.Random(seed), k))))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(omegas=st.lists(st.fractions(Fraction(1, 3), 4, max_denominator=5),
                       min_size=2, max_size=4, unique=True),
       skew=st.lists(st.fractions(-2, 2, max_denominator=4), min_size=6, max_size=6))
def test_exact_coupled_oscillators_match_the_q_i_oracles(omegas, skew):
    # rational frequencies behind a Cayley rotation: simple exact lambda, K <= 4
    pairs = [(i, j) for i in range(len(omegas)) for j in range(i + 1, len(omegas))]
    assert_matches_the_oracles(adjoint_matrix(rotated_oscillators(omegas, dict(zip(pairs, skew)))))


REPEATED_ROOT_MODELS = {
    "free_particle": validate_quadratic(parse_to_polynomial("1/2*p1^2")),
    "equal_oscillators": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1/2*x2^2")),
    "criterion-09": build_hd(Fraction(0)),
    "free_and_oscillator": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 1/2*p2^2 + 2*x2^2")),
}


@pytest.mark.parametrize("name", [*ADJUGATE_MODELS, *REPEATED_ROOT_MODELS])
def test_named_models_match_the_q_i_oracles(name):
    assert_matches_the_oracles(adjoint_matrix({**ADJUGATE_MODELS, **REPEATED_ROOT_MODELS}[name]))


def test_repeated_roots_take_yun():
    for expr, want in [("1/2*p1^2", [1]), ("1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1/2*x2^2", [2])]:
        q = characteristic_polynomial(adjoint_matrix(validate_quadratic(
            parse_to_polynomial(expr))))[::2]
        assert [k for _, k in squarefree_factors(q)] == want
    q = characteristic_polynomial(adjoint_matrix(build_hd(Fraction(0))))[::2]
    assert squarefree_factors(q) == [([ComplexRational(-1), ComplexRational(1)], 2)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([ComplexRational(Fraction(a, b), Fraction(c, b))
                                 for a in (-2, 0, 3) for c in (-1, 0, 2) for b in (1, 3)]),
                min_size=1, max_size=7))
def test_squarefree_matches_yun_on_gaussian_polynomials(root_list):
    # real and Gaussian roots with repeats: the modular test sees the real
    # polynomials, and Yun's algorithm alone decides the others
    p = poly_from_roots(root_list)
    assert squarefree_factors(p) == yun_squarefree_factors(p)
    assert sum(len(f) - 1 and (len(f) - 1) * k for f, k in squarefree_factors(p)) \
        == len(root_list)


@pytest.mark.parametrize("root_list", [[1, 1], [1, 2]], ids=["double", "simple"])
def test_prime_dividing_the_leading_coefficient_takes_yun(root_list):
    # over one denominator, (t - 1/P)(t - r/P) is P^2 t^2 - (1 + r) P t + r,
    # the constant r modulo P = 2^61 - 1: no modular gcd can decide it
    big = 2 ** 61 - 1
    p = poly_from_roots([ComplexRational(Fraction(r, big)) for r in root_list])
    assert squarefree_factors(p) == yun_squarefree_factors(p)
    assert [k for _, k in squarefree_factors(p)] == ([2] if root_list == [1, 1] else [1])


def test_non_real_polynomial_takes_yun():
    # (t - i)(t + 2) is square-free, but the modular test decides real
    # polynomials only: it answers False and Yun's algorithm finds the factor
    p = poly_from_roots([I, ComplexRational(-2)])
    assert spectral._squarefree_mod(p) is False
    assert squarefree_factors(p) == yun_squarefree_factors(p) == [(p, 1)]


def fraction_sqrt_exact(s):
    """The square root x + iy of s with x >= 0 in Q(i), or None, over
    Fractions: x^2 = (Re s + |s|)/2, y = Im s/(2x) (the oracle of _sqrt_exact)."""
    def rational_sqrt(r):
        root = Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))
        return root if root * root == r else None
    re, im = s.re, s.im
    modulus = rational_sqrt(re * re + im * im)
    x = None if modulus is None else rational_sqrt((re + modulus) / 2)
    if not x:
        y = None if x is None else rational_sqrt(modulus)
        return None if y is None else ComplexRational(0, y)
    return ComplexRational(x, im / (2 * x))


small_gaussians = st.builds(lambda a, b, d: ComplexRational(Fraction(a, d), Fraction(b, d)),
                            st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=small_gaussians, square=st.booleans())
def test_sqrt_exact_matches_the_fraction_oracle(z, square):
    s = z * z if square else z
    assert _sqrt_exact(s) == fraction_sqrt_exact(s)
    if square:
        assert _sqrt_exact(s) in (z, -z)


def test_large_distinct_denominators_match_the_q_i_hessenberg():
    # d and the coefficients of det(tI - B) reach thousands of bits
    rng = random.Random(5)
    m = ComplexMatrix([[Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))
                        for _ in range(8)] for _ in range(8)])
    assert characteristic_polynomial(m) == hessenberg_over_q_i(m)


def test_thirty_digit_chain_matches_the_q_i_hessenberg():
    # the 4-mode chain with 30-digit coefficients that CI runs under a timeout
    rng = random.Random(3)
    big = lambda: f"{rng.randint(10 ** 29, 10 ** 30)}/{rng.randint(10 ** 29, 10 ** 30)}"  # noqa: E731
    expr = " + ".join([f"1/2*p{i}^2 + {big()}*x{i}^2" for i in range(1, 5)]
                      + [f"{big()}*x{i}*x{i + 1}" for i in range(1, 4)])
    m = adjoint_matrix(validate_quadratic(parse_to_polynomial(expr)))
    assert m.dim == 8
    assert characteristic_polynomial(m) == hessenberg_over_q_i(m)


def test_gaussian_matrix_with_a_wide_bound_matches_the_q_i_hessenberg():
    # a 4 x 4 Gaussian matrix (no i^rot B' with B' real) whose coefficient
    # bound 2 (1 + R)^4 has more than 4423 bits
    rng = random.Random(11)
    part = lambda: Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))  # noqa: E731
    m = ComplexMatrix([[ComplexRational(part(), part()) for _ in range(4)] for _ in range(4)])
    _, rows = m.integer_form
    assert all(a and b for row in rows for _, a, b in row)
    bound = 2 * (1 + max(sum(abs(a) + abs(b) for _, a, b in row) for row in rows)) ** 4
    assert bound.bit_length() > 4423
    assert characteristic_polynomial(m) == hessenberg_over_q_i(m)


class TestSerialization:
    def test_schema(self):
        spectrum = eigen_decompose(adjoint_matrix(build_hd(Fraction(1))))
        doc = spectral_to_json(spectrum)
        assert set(doc) == {"char_poly_exact", "defective", "frequencies"}
        assert doc["defective"] is False
        assert len(doc["char_poly_exact"]) == 5
        freq = doc["frequencies"][0]
        assert freq["lambda"] == [-1.0, -0.5]
        assert freq["lambda_exact"] == [-1, 1, -1, 2]

    def test_zero_eigenvalue_keeps_exact_form(self):
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(Fraction(1, 2) * (p * p))
        doc = spectral_to_json(eigen_decompose(adjoint_matrix(ham)))
        assert doc["frequencies"][0]["lambda_exact"] == [0, 1, 0, 1]
        assert doc["defective"] is True
