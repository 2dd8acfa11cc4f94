"""Exact operator algebra: arithmetic, normal ordering, commutators, text."""

from fractions import Fraction

import pytest

from conftest import naive_multiply, random_crat, random_polynomial
from quadladder.errors import DimensionMismatchError
from quadladder.weyl import (
    BasisIndex,
    ComplexRational,
    Monomial,
    WeylPolynomial,
    _ratio,
    commutator,
    dagger,
    degree_decompose,
    is_hermitian,
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
    def test_flat_roundtrip(self):
        for num_modes in (1, 2, 3):
            for flat in range(2 * num_modes):
                idx = BasisIndex.from_flat(flat, num_modes)
                assert idx.flat(num_modes) == flat

    def test_order_positions_before_momenta(self):
        assert BasisIndex("x", 3) < BasisIndex("p", 1)
        assert BasisIndex("x", 1) < BasisIndex("x", 2)
        assert BasisIndex("p", 1) < BasisIndex("p", 2)

    def test_two_mode_aliases(self):
        names = [BasisIndex.from_flat(i, 2).symbol(2) for i in range(4)]
        assert names == ["x", "y", "px", "py"]

    def test_other_mode_counts_use_numbered_names(self):
        assert BasisIndex("p", 3).symbol(3) == "p3"
        assert BasisIndex("x", 1).symbol(1) == "x1"

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            BasisIndex("x", 3).flat(2)


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


# ---------------------------------------------------------------------------
# commutator structure
# ---------------------------------------------------------------------------

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

    def test_jacobi_identity(self, rng):
        for _ in range(15):
            a = random_polynomial(rng, 2, max_terms=3, max_degree=2)
            b = random_polynomial(rng, 2, max_terms=3, max_degree=2)
            c = random_polynomial(rng, 2, max_terms=3, max_degree=2)
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
                assert all(m.degree == deg for m in part.terms)
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

    def test_monomial_factors_roundtrip(self):
        mono = Monomial((2, 0, 1, 3))
        word = list(mono.factors())
        assert len(word) == 6
        assert word == sorted(word)


class TestRatio:
    """_ratio(num, den): the scalar r with num == r*den termwise, or None."""

    def test_contract(self):
        half, c = ComplexRational(Fraction(1, 2)), ComplexRational(2, -3)
        den = {"a": ComplexRational(1), "b": half}
        assert _ratio({}, den) == 0
        assert _ratio(den, {}) is None
        assert _ratio({"a": c, "c": c * half}, den) is None     # other keys
        assert _ratio({"a": c}, den) is None                    # fewer keys
        assert _ratio({"a": c, "b": c}, den) is None            # not proportional
        assert _ratio({"a": c, "b": c * half}, den) == c        # complex ratio

    def test_operator_terms(self):
        c = ComplexRational(2, -3)
        assert _ratio((c * (x() + p())).terms, (x() + p()).terms) == c
        assert _ratio((x() + p()).terms, (x() - p()).terms) is None


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
