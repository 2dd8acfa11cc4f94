"""Exact operator algebra: arithmetic, normal ordering, commutators, text."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import naive_multiply, random_crat, random_polynomial, ratio
from quadladder.errors import DimensionMismatchError
from quadladder.weyl import (
    ONE,
    ComplexRational,
    WeylPolynomial,
    _mono_product_terms,
    commutator,
    dagger,
    degree_decompose,
    format_coefficient,
    is_hermitian,
    symbol,
)


def x(mode=1, num_modes=1):
    return WeylPolynomial.position(mode, num_modes)


def p(mode=1, num_modes=1):
    return WeylPolynomial.momentum(mode, num_modes)


# ---------------------------------------------------------------------------
# ComplexRational
# ---------------------------------------------------------------------------

class TestComplexRational:
    def test_exact_addition(self):
        assert ComplexRational(Fraction(1, 3)) + ComplexRational(Fraction(1, 6)) \
            == ComplexRational(Fraction(1, 2))

    def test_multiplication(self):
        z = ComplexRational(1, 2) * ComplexRational(3, -1)
        assert z == ComplexRational(5, 5)

    def test_division_roundtrip(self, rng):
        for _ in range(50):
            a = random_crat(rng)
            b = random_crat(rng, allow_zero=False)
            assert (a / b) * b == a

    def test_power(self):
        z = ComplexRational(0, 1)
        assert z ** 0 == ComplexRational(1)
        assert z ** 2 == ComplexRational(-1)
        assert z ** 3 == ComplexRational(0, -1)
        assert ComplexRational(Fraction(1, 2)) ** 4 == ComplexRational(Fraction(1, 16))

    def test_conjugate(self):
        assert ComplexRational(2, 3).conjugate() == ComplexRational(2, -3)

    def test_from_complex_is_exact(self):
        z = ComplexRational.from_complex(0.5 - 0.25j)
        assert z == ComplexRational(Fraction(1, 2), Fraction(-1, 4))

    def test_as_quad(self):
        assert ComplexRational(Fraction(-1, 2), Fraction(3, 4)).as_quad() \
            == (-1, 2, 3, 4)

    def test_int_and_fraction_coercion(self):
        assert 2 + ComplexRational(1) == ComplexRational(3)
        assert Fraction(1, 2) * ComplexRational(0, 2) == ComplexRational(0, 1)
        assert 1 - ComplexRational(0, 1) == ComplexRational(1, -1)

    def test_hashable_and_bool(self):
        assert hash(ComplexRational(1, 2)) == hash(ComplexRational(1, 2))
        assert not ComplexRational(0, 0)
        assert ComplexRational(0, 1)

    def test_complex_conversion(self):
        assert complex(ComplexRational(Fraction(1, 2), -2)) == 0.5 - 2j


# ---------------------------------------------------------------------------
# basis bookkeeping
# ---------------------------------------------------------------------------

class TestBasis:
    def test_two_mode_aliases(self):
        names = [symbol(i, 2) for i in range(4)]
        assert names == ["x", "y", "px", "py"]

    def test_other_mode_counts_use_numbered_names(self):
        assert symbol(5, 3) == "p3"
        assert symbol(0, 1) == "x1"

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            symbol(4, 2)
        with pytest.raises(DimensionMismatchError):
            WeylPolynomial.position(3, 2)


# ---------------------------------------------------------------------------
# products and normal ordering
# ---------------------------------------------------------------------------

class TestProducts:
    def test_p_times_x(self):
        assert p() * x() == x() * p() - ComplexRational(0, 1)

    def test_p_squared_times_x(self):
        expected = x() * p() * p() - ComplexRational(0, 2) * p()
        assert p() * p() * x() == expected

    def test_canonical_commutators(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                expected = WeylPolynomial.constant(
                    ComplexRational(0, 1 if m == n else 0), 3)
                assert commutator(x(m, 3), p(n, 3)) == expected
                assert commutator(x(m, 3), x(n, 3)).is_zero
                assert commutator(p(m, 3), p(n, 3)).is_zero

    def test_matches_swap_oracle(self, rng):
        for _ in range(120):
            num_modes = rng.choice((1, 2, 3))
            a = random_polynomial(rng, num_modes)
            b = random_polynomial(rng, num_modes)
            assert a * b == naive_multiply(a, b)

    def test_associative(self, rng):
        for _ in range(40):
            num_modes = rng.choice((1, 2))
            a = random_polynomial(rng, num_modes, max_terms=3, max_degree=2)
            b = random_polynomial(rng, num_modes, max_terms=3, max_degree=2)
            c = random_polynomial(rng, num_modes, max_terms=3, max_degree=2)
            assert (a * b) * c == a * (b * c)

    def test_scalar_ops(self):
        a = x() + 2 * p()
        assert a - a == WeylPolynomial.zero(1)
        assert a / 2 == Fraction(1, 2) * a
        assert WeylPolynomial.constant(Fraction(3, 4), 1) == Fraction(3, 4)

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            x(1, 1) * x(1, 2)

    def test_degree(self):
        assert (x() * x() * p()).degree == 3
        assert WeylPolynomial.constant(5, 2).degree == 0
        assert WeylPolynomial.zero(1).degree == 0


def general_reordering(left, right, num_modes):
    """(x^a p^b)(x^c p^d) by the per-mode identity
    p^b x^c = sum_k k! C(b,k) C(c,k) (-i)^k x^(c-k) p^(b-k), every k
    written out, also where only k = 0 exists."""
    a, b = left[:num_modes], left[num_modes:]
    c, d = right[:num_modes], right[num_modes:]
    neg_i_pow = [ComplexRational(1), ComplexRational(0, -1), ComplexRational(-1),
                 ComplexRational(0, 1)]
    out = []
    for ks in product(*(range(min(b[m], c[m]) + 1) for m in range(num_modes))):
        weight = 1
        for m, k in enumerate(ks):
            weight *= factorial(k) * comb(b[m], k) * comb(c[m], k)
        out.append((tuple(a[m] + c[m] - ks[m] for m in range(num_modes))
                    + tuple(b[m] + d[m] - ks[m] for m in range(num_modes)),
                    neg_i_pow[sum(ks) % 4] * weight))
    return out


@st.composite
def monomial_pairs(draw):
    """Two exponent tuples over one K <= 3, half of them forced to reorder
    (some mode with b_m c_m != 0)."""
    num_modes = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * num_modes))
    left, right = draw(exps), draw(exps)
    if draw(st.booleans()):
        m = draw(st.integers(0, num_modes - 1))
        left = left[:num_modes + m] + (max(1, left[num_modes + m]),) + left[num_modes + m + 1:]
        right = right[:m] + (max(1, right[m]),) + right[m + 1:]
    return left, right, num_modes


class TestMonoProductTerms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=monomial_pairs())
    def test_matches_the_general_identity(self, pair):
        left, right, num_modes = pair
        assert _mono_product_terms(left, right, num_modes) \
            == general_reordering(left, right, num_modes)

    @pytest.mark.parametrize("left, right", [
        ((1, 0, 0, 2), (0, 3, 1, 0)),   # x1 p2^2 times x2^3 p1: p2^2 meets x2^3
        ((2, 1, 0, 0), (1, 0, 0, 1)),   # no p on the left, nothing to reorder
        ((0, 0, 1, 0), (0, 2, 0, 0)),   # p1 before x2: different modes commute
    ])
    def test_unit_weight_only_without_reordering(self, left, right):
        terms = _mono_product_terms(left, right, 2)
        reorders = any(b * c for b, c in zip(left[2:], right[:2]))
        assert (len(terms) > 1) == reorders
        assert (terms[0][1] is ONE) == (not reorders)
        assert terms[0][0] == tuple(u + v for u, v in zip(left, right))


# ---------------------------------------------------------------------------
# commutator structure
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polynomial_triples(draw):
    """Three polynomials over one K <= 4, each of up to three terms of
    degree <= 2."""
    num_modes = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, 2 * num_modes - 1), max_size=2).map(
        lambda flats: tuple(flats.count(j) for j in range(2 * num_modes)))
    terms = st.dictionaries(word, st.builds(ComplexRational, rationals, rationals),
                            min_size=1, max_size=3)
    return tuple(WeylPolynomial(num_modes, draw(terms)) for _ in range(3))


class TestCommutators:
    def test_self_commutator_vanishes(self, rng):
        for _ in range(20):
            a = random_polynomial(rng, 2)
            assert commutator(a, a).is_zero

    def test_antisymmetry(self, rng):
        for _ in range(20):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            assert commutator(a, b) == -1 * commutator(b, a)

    def test_bilinearity(self, rng):
        for _ in range(20):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            c = random_polynomial(rng, 2)
            s = random_crat(rng)
            assert commutator(a, s * b + c) == s * commutator(a, b) + commutator(a, c)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(polys=polynomial_triples())
    def test_jacobi_identity(self, polys):
        a, b, c = polys
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        assert total.is_zero


# ---------------------------------------------------------------------------
# dagger
# ---------------------------------------------------------------------------

class TestDagger:
    def test_on_mixed_word(self):
        assert dagger(x() * p()) == x() * p() - ComplexRational(0, 1)

    def test_involution(self, rng):
        for _ in range(30):
            a = random_polynomial(rng, rng.choice((1, 2, 3)))
            assert dagger(dagger(a)) == a

    def test_antihomomorphism(self, rng):
        for _ in range(30):
            num_modes = rng.choice((1, 2))
            a = random_polynomial(rng, num_modes)
            b = random_polynomial(rng, num_modes)
            assert dagger(a * b) == dagger(b) * dagger(a)

    def test_conjugates_scalars(self):
        a = ComplexRational(1, 2) * x()
        assert dagger(a) == ComplexRational(1, -2) * x()

    def test_hermitian_detection(self):
        assert is_hermitian(x() * p() + p() * x())
        assert not is_hermitian(x() * p())
        assert is_hermitian(WeylPolynomial.constant(Fraction(5, 3), 1))
        assert not is_hermitian(WeylPolynomial.constant(ComplexRational(0, 1), 1))


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

class TestStructure:
    def test_degree_decompose_sums_back(self, rng):
        for _ in range(20):
            a = random_polynomial(rng, 2, max_terms=6, max_degree=4)
            parts = degree_decompose(a)
            assert list(parts) == sorted(parts)
            total = WeylPolynomial.zero(2)
            for deg, part in parts.items():
                assert part.degree == deg or part.is_zero
                assert all(sum(m) == deg for m in part.terms)
                total = total + part
            assert total == a

    def test_from_linear_roundtrip(self, rng):
        for num_modes in (1, 2, 3):
            coeffs = [random_crat(rng) for _ in range(2 * num_modes)]
            poly = WeylPolynomial.from_linear(coeffs, num_modes)
            assert poly.linear_coefficients() == coeffs

    def test_linear_coefficients_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            (x() * x()).linear_coefficients()

    def test_constructor_validates_keys(self):
        with pytest.raises(DimensionMismatchError):
            WeylPolynomial(2, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            WeylPolynomial(1, {(2, -1): 1})

    @pytest.mark.parametrize("coeff", [0.5, 1j, "1/2", None])
    def test_constructor_rejects_inexact_coefficients(self, coeff):
        with pytest.raises(TypeError, match="ComplexRational, int or Fraction"):
            WeylPolynomial.constant(coeff, 1)
        with pytest.raises(TypeError):
            WeylPolynomial(1, {(1, 0): coeff})


class TestRatio:
    """ratio(num, den), the tests' oracle: the scalar r with num == r*den
    termwise, or None."""

    def test_contract(self):
        half, c = ComplexRational(Fraction(1, 2)), ComplexRational(2, -3)
        den = {"a": ComplexRational(1), "b": half}
        assert ratio({}, den) == 0
        assert ratio(den, {}) is None
        assert ratio({"a": c, "c": c * half}, den) is None     # other keys
        assert ratio({"a": c}, den) is None                    # fewer keys
        assert ratio({"a": c, "b": c}, den) is None            # not proportional
        assert ratio({"a": c, "b": c * half}, den) == c        # complex ratio

    def test_operator_terms(self):
        c = ComplexRational(2, -3)
        assert ratio((c * (x() + p())).terms, (x() + p()).terms) == c
        assert ratio((x() + p()).terms, (x() - p()).terms) is None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class TestRendering:
    def test_two_mode_golden(self):
        K = 2
        X, Y = x(1, K), x(2, K)
        PX, PY = p(1, K), p(2, K)
        h = (Fraction(1, 2) * (PX * PX - PY * PY)
             + Fraction(1, 2) * (X * X - Y * Y)
             - Fraction(1, 2) * (X * PY + Y * PX))
        assert str(h) == ("(1/2)*x^2 - (1/2)*x*py - (1/2)*y^2 - (1/2)*y*px "
                          "+ (1/2)*px^2 - (1/2)*py^2")

    def test_coefficient_forms(self):
        X = x()
        assert str(ComplexRational(1, 1) * X) == "(1+i)*x1"
        assert str(ComplexRational(Fraction(1, 2), Fraction(-3, 4)) * X) \
            == "(1/2-3/4*i)*x1"
        assert str(ComplexRational(0, Fraction(5, 2)) * X
                   + WeylPolynomial.constant(ComplexRational(0, -1), 1)) \
            == "(5/2)*i*x1 - i"
        assert str(WeylPolynomial.constant(Fraction(2, 3), 1)) == "2/3"
        assert str(WeylPolynomial.zero(1)) == "0"
        assert str(-2 * p()) == "-2*p1"
        assert str(x() * p() * x()) == "x1^2*p1 - i*x1"

    def test_order_is_graded_lex_descending(self):
        poly = x() + p() * p()
        assert str(poly) == "p1^2 + x1"


def old_format_coefficient(coeff, *, standalone):
    """format_coefficient as it was written on two Fractions, kept as the
    oracle for the version that reads the canonical triple."""
    re, im = coeff.re, coeff.im

    def magnitude(mag, imag):
        if imag:
            if mag == 1:
                return "i"
            return f"{mag}*i" if mag.denominator == 1 else f"({mag})*i"
        if mag.denominator == 1:
            return str(mag)
        return str(mag) if standalone else f"({mag})"

    if im == 0:
        sign = "-" if re < 0 else "+"
        mag = abs(re)
        if not standalone and mag == 1:
            return sign, ""
        body = magnitude(mag, imag=False)
        return sign, body if standalone else f"{body}*"
    if re == 0:
        sign = "-" if im < 0 else "+"
        body = magnitude(abs(im), imag=True)
        return sign, body if standalone else f"{body}*"
    return "+", f"({coeff})" if standalone else f"({coeff})*"


BIG = 10 ** 399 + 7                   # 400 digits


class TestFormatCoefficient:
    @pytest.mark.parametrize("coeff", [
        ComplexRational(0), ComplexRational(1), ComplexRational(-1),
        ComplexRational(0, 1), ComplexRational(0, -1), ComplexRational(7),
        ComplexRational(0, -7), ComplexRational(Fraction(-3, 4)),
        ComplexRational(0, Fraction(5, 2)), ComplexRational(1, 1),
        ComplexRational(Fraction(1, 2), Fraction(-3, 4)),
        ComplexRational(Fraction(-1, 6), Fraction(1, 4)),
        ComplexRational(BIG), ComplexRational(0, -BIG),
        ComplexRational(Fraction(-BIG, BIG + 2)), ComplexRational(0, Fraction(1, BIG)),
        ComplexRational(Fraction(BIG, 3), Fraction(-1, BIG)),
    ])
    @pytest.mark.parametrize("standalone", [True, False])
    def test_matches_the_fraction_oracle(self, coeff, standalone):
        assert format_coefficient(coeff, standalone=standalone) \
            == old_format_coefficient(coeff, standalone=standalone)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12),
           st.integers(1, 12), st.booleans())
    def test_matches_the_oracle_on_small_values(self, a, b, c, d, standalone):
        coeff = ComplexRational(Fraction(a, c), Fraction(b, d))
        assert format_coefficient(coeff, standalone=standalone) \
            == old_format_coefficient(coeff, standalone=standalone)
