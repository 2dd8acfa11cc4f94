"""Adjoint matrix construction: convention, validation, exactness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian_quadratic
from quadladder.adjoint import (
    ComplexMatrix,
    QuadraticHamiltonian,
    adjoint_matrix,
    matrices_commute,
    matrix_to_json,
    validate_quadratic,
)
from quadladder.bateman import build_hd, split_h0_h1
from quadladder.errors import NotHermitianError, NotQuadraticError
from quadladder.weyl import (
    ComplexRational,
    WeylPolynomial,
    commutator,
    dagger,
)


def expected_bateman_matrix(b):
    """(i/2) * [[0,b,2,0],[b,0,0,-2],[-2,0,0,-b],[0,2,-b,0]] exactly."""
    grid = [
        [0, b, 2, 0],
        [b, 0, 0, -2],
        [-2, 0, 0, -b],
        [0, 2, -b, 0],
    ]
    return tuple(
        tuple(ComplexRational(0, Fraction(v, 2)) for v in row) for row in grid
    )


class TestBatemanMatrix:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_exact_entries(self, b):
        matrix = adjoint_matrix(build_hd(b))
        assert matrix.dim == 4
        assert matrix.exact == expected_bateman_matrix(b)

    def test_trace_zero(self):
        matrix = adjoint_matrix(build_hd(Fraction(3, 7)))
        assert matrix.trace_exact() == ComplexRational(0)

    def test_component_matrices_commute(self):
        h0, h1 = split_h0_h1(Fraction(1))
        hd = build_hd(Fraction(1))
        mats = [adjoint_matrix(h) for h in (h0, h1, hd)]
        for a in mats:
            for b in mats:
                assert matrices_commute(a, b)


class TestSingleModeOracles:
    def test_harmonic_oscillator(self):
        x = WeylPolynomial.position(1, 1)
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(Fraction(1, 2) * (p * p + x * x))
        matrix = adjoint_matrix(ham)
        i = ComplexRational(0, 1)
        assert matrix.exact == (
            (ComplexRational(0), i),
            (-1 * i, ComplexRational(0)),
        )

    def test_free_particle(self):
        p = WeylPolynomial.momentum(1, 1)
        matrix = adjoint_matrix(validate_quadratic(Fraction(1, 2) * (p * p)))
        assert matrix.exact == (
            (ComplexRational(0), ComplexRational(0)),
            (ComplexRational(0, -1), ComplexRational(0)),
        )


def commutator_matrix(ham):
    """Oracle: column i holds the coefficients of the Weyl-product [H, O_i]."""
    num_modes = ham.num_modes
    dim = 2 * num_modes
    columns = [
        commutator(ham.op, WeylPolynomial.basis_element(i, num_modes)
                   ).linear_coefficients()
        for i in range(dim)
    ]
    return tuple(tuple(columns[i][j] for i in range(dim)) for j in range(dim))


# Degree-2 monomial shapes over flat indices (x1..xK, p1..pK): each maps
# (K, a, b) with a != b to the two flat factors of the monomial.
SHAPES = {
    "x_a^2": lambda k, a, b: (a, a),
    "p_a^2": lambda k, a, b: (k + a, k + a),
    "x_a*x_b": lambda k, a, b: (a, b),
    "p_a*p_b": lambda k, a, b: (k + a, k + b),
    "x_a*p_b": lambda k, a, b: (a, k + b),
    "x_a*p_a": lambda k, a, b: (a, k + a),
}
TWO_MODE_SHAPES = ("x_a*x_b", "p_a*p_b", "x_a*p_b")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
complex_rationals = st.builds(ComplexRational, rationals, rationals)


@st.composite
def quadratic_operators(draw):
    """(K, op, hermitian) with op a sum of degree-2 monomials of every shape,
    optionally symmetrized into a Hermitian operator, plus an optional
    constant."""
    num_modes = draw(st.integers(1, 4))
    terms: dict[tuple[int, ...], ComplexRational] = {}
    for shape, flats in SHAPES.items():
        if num_modes == 1 and shape in TWO_MODE_SHAPES:
            continue
        for _ in range(draw(st.integers(0, 2))):
            a, b = (draw(st.permutations(range(num_modes)))[:2]
                    if num_modes > 1 else (0, 0))
            exps = [0] * (2 * num_modes)
            for flat in flats(num_modes, a, b):
                exps[flat] += 1
            terms[tuple(exps)] = draw(complex_rationals)
    op = WeylPolynomial(num_modes, terms)
    hermitian = draw(st.booleans())
    if hermitian:
        op = op + dagger(op)
    if draw(st.booleans()):
        offset = draw(rationals) if hermitian else draw(complex_rationals)
        op = op + WeylPolynomial.constant(offset, num_modes)
    return num_modes, op, hermitian


def hamiltonian(num_modes, op, hermitian):
    """A validated Hamiltonian, or a hand-built wrapper for a non-Hermitian op."""
    if hermitian:
        return validate_quadratic(op)
    return QuadraticHamiltonian(
        op=op, num_modes=num_modes, energy_offset=op.constant_term())


class TestDefiningIdentity:
    def test_columns_are_commutator_coefficients(self, rng):
        for _ in range(40):
            num_modes = rng.choice((1, 2, 3))
            ham = validate_quadratic(random_hermitian_quadratic(rng, num_modes))
            matrix = adjoint_matrix(ham)
            assert matrix.dim == 2 * num_modes
            assert matrix.exact == commutator_matrix(ham)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=quadratic_operators())
    def test_closed_form_matches_commutators(self, case):
        """M = i A Omega equals the column-by-column Weyl-product construction,
        for validated Hermitian operators and for hand-built wrappers alike."""
        ham = hamiltonian(*case)
        assert adjoint_matrix(ham).exact == commutator_matrix(ham)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=quadratic_operators())
    def test_trace_always_zero(self, case):
        assert adjoint_matrix(hamiltonian(*case)).trace_exact() == ComplexRational(0)

    def test_constant_shift_does_not_change_matrix(self, rng):
        base = random_hermitian_quadratic(rng, 2)
        shifted = base + WeylPolynomial.constant(Fraction(7, 3), 2)
        assert adjoint_matrix(validate_quadratic(base)).exact \
            == adjoint_matrix(validate_quadratic(shifted)).exact


class TestValidation:
    def test_cubic_rejected(self):
        x = WeylPolynomial.position(1, 1)
        with pytest.raises(NotQuadraticError) as err:
            validate_quadratic(x * x * x)
        assert "3" in str(err.value)

    def test_linear_rejected(self):
        x = WeylPolynomial.position(1, 1)
        with pytest.raises(NotQuadraticError):
            validate_quadratic(x * x + x)

    def test_non_hermitian_rejected(self):
        x = WeylPolynomial.position(1, 1)
        p = WeylPolynomial.momentum(1, 1)
        with pytest.raises(NotHermitianError):
            validate_quadratic(x * p)

    def test_symmetrized_word_passes_with_offset(self):
        x = WeylPolynomial.position(1, 1)
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(x * p + p * x)
        assert ham.energy_offset == ComplexRational(0, -1)
        assert ham.op == x * p + p * x

    def test_pure_constant_allowed(self):
        ham = validate_quadratic(WeylPolynomial.constant(Fraction(5, 2), 1))
        assert ham.energy_offset == ComplexRational(Fraction(5, 2))
        assert adjoint_matrix(ham).exact == (
            (ComplexRational(0), ComplexRational(0)),
            (ComplexRational(0), ComplexRational(0)),
        )


class TestClosedFormRefusesBadDegrees:
    """A hand-built wrapper skips validate_quadratic; the closed form must
    still refuse terms of degree other than 0 and 2, never skip them."""

    @pytest.mark.parametrize("degree, offending", [(1, "x"), (3, "x^2*py")])
    def test_refused(self, degree, offending):
        x = WeylPolynomial.position(1, 2)
        p = WeylPolynomial.momentum(2, 2)
        odd = x if degree == 1 else x * x * p
        op = Fraction(1, 2) * (p * p + x * x) + odd + WeylPolynomial.constant(3, 2)
        with pytest.raises(NotQuadraticError) as err:
            adjoint_matrix(QuadraticHamiltonian(
                op=op, num_modes=2, energy_offset=op.constant_term()))
        assert f"degree {degree} " in str(err.value)
        assert err.value.offending == (offending,)


class TestMatrixHelpers:
    def test_commute_is_exact(self):
        a = ComplexMatrix(((0, 1), (1, 0)))
        assert matrices_commute(a, ComplexMatrix(((0, 2), (2, 0))))
        assert not matrices_commute(a, ComplexMatrix(((1, 0), (0, -1))))
        # different denominators: both are combinations of I and a
        third, half = ComplexRational(Fraction(1, 3)), ComplexRational(Fraction(1, 2))
        fifth, seventh = ComplexRational(Fraction(1, 5)), ComplexRational(Fraction(1, 7))
        assert matrices_commute(ComplexMatrix(((third, half), (half, third))),
                                ComplexMatrix(((fifth, seventh), (seventh, fifth))))
        # AB - BA has entries +-10^-20, below float resolution beside 1
        tiny = ComplexMatrix(((1, 0), (0, ComplexRational(1 + Fraction(1, 10 ** 20)))))
        ab = np.array(a.entries) @ np.array(tiny.entries)
        ba = np.array(tiny.entries) @ np.array(a.entries)
        assert np.abs(ab - ba).max() <= 1e-15
        assert not matrices_commute(a, tiny)

    def test_entries_mirror_exact_rows(self):
        half = ComplexRational(Fraction(1, 2), -3)
        matrix = ComplexMatrix(((half, 1), (0, ComplexRational(0, 1))))
        assert matrix.entries == ((0.5 - 3j, 1 + 0j), (0j, 1j))
        assert matrix.norm_inf() == abs(0.5 - 3j) + 1
        with pytest.raises(TypeError):
            ComplexMatrix(((0.5, 0), (0, 1)))

    def test_json_schema(self):
        matrix = adjoint_matrix(
            validate_quadratic(
                Fraction(1, 2)
                * WeylPolynomial.momentum(1, 1) * WeylPolynomial.momentum(1, 1)))
        doc = matrix_to_json(matrix)
        assert doc["dim"] == 2
        assert len(doc["entries"]) == 4
        assert doc["entries"][2] == [0.0, -1.0]
        assert doc["entries_exact"][2] == [0, 1, -1, 1]
