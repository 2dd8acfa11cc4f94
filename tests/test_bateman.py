"""Model construction: parameters, the dimensionless ratio, the split."""

from fractions import Fraction

import pytest

from quadladder.adjoint import adjoint_matrix, matrices_commute
from quadladder.bateman import (
    BatemanParams,
    build_hd,
    dimensionless_b,
    split_h0_h1,
    vacuum_functions,
)
from quadladder.dsl import parse_to_polynomial
from quadladder.weyl import ComplexRational, commutator


class TestParams:
    def test_accepts_rational_like_inputs(self):
        params = BatemanParams(m=1, gamma="1/2", omega=Fraction(2))
        assert params.gamma == Fraction(1, 2)
        assert params.hbar == Fraction(1)

    @pytest.mark.parametrize("kwargs", [
        {"m": 0, "gamma": 1, "omega": 1},
        {"m": -1, "gamma": 1, "omega": 1},
        {"m": 1, "gamma": -1, "omega": 1},
        {"m": 1, "gamma": 1, "omega": 0},
        {"m": 1, "gamma": 1, "omega": 1, "hbar": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BatemanParams(**kwargs)

    def test_dimensionless_ratio(self):
        assert dimensionless_b(BatemanParams(m=1, gamma=Fraction(1, 2), omega=1)) \
            == Fraction(1, 2)
        assert dimensionless_b(BatemanParams(m=2, gamma=1, omega=Fraction(1, 4))) \
            == Fraction(2)

    def test_ratio_invariant_under_rescaling(self):
        base = BatemanParams(m=Fraction(3, 2), gamma=Fraction(1, 3), omega=2)
        for c in (Fraction(2), Fraction(1, 5), Fraction(7, 3)):
            scaled = BatemanParams(m=c * base.m, gamma=c * base.gamma,
                                   omega=base.omega, hbar=Fraction(9))
            assert dimensionless_b(scaled) == dimensionless_b(base)


class TestBuildHd:
    def test_matches_expression_form(self):
        built = build_hd(Fraction(1))
        parsed = parse_to_polynomial(
            "1/2*(px^2 - py^2) + 1/2*(x^2 - y^2) - 1/2*(x*py + y*px)")
        assert built.op == parsed

    def test_golden_text(self):
        assert str(build_hd(Fraction(1)).op) == (
            "(1/2)*x^2 - (1/2)*x*py - (1/2)*y^2 - (1/2)*y*px "
            "+ (1/2)*px^2 - (1/2)*py^2")

    def test_is_hermitian_with_no_offset(self):
        ham = build_hd(Fraction(5, 3))
        assert ham.energy_offset == ComplexRational(0)
        assert ham.num_modes == 2

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            build_hd(Fraction(-1, 2))

    def test_accepts_int_and_string(self):
        assert build_hd(1).op == build_hd(Fraction(1)).op
        assert build_hd("1/2").op == build_hd(Fraction(1, 2)).op


class TestSplit:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_parts_sum_and_commute(self, b):
        h0, h1 = split_h0_h1(b)
        hd = build_hd(b)
        assert h0.op + h1.op == hd.op
        assert h0.op == build_hd(0).op
        assert commutator(h0.op, h1.op).is_zero
        assert commutator(h0.op, hd.op).is_zero
        assert commutator(h1.op, hd.op).is_zero

    def test_matrices_commute_too(self):
        h0, h1 = split_h0_h1(Fraction(2))
        assert matrices_commute(adjoint_matrix(h0), adjoint_matrix(h1))

    def test_undamped_coupling_vanishes(self):
        _, h1 = split_h0_h1(0)
        assert h1.op.is_zero


class TestVacua:
    def test_shapes(self):
        psi0, psi1 = vacuum_functions()
        half = Fraction(1, 2)
        for psi, sign in ((psi0, -1), (psi1, 1)):
            assert psi.num_modes == 2
            assert psi.poly == {(0, 0): ComplexRational(1)}
            assert psi.quad[0][0] == ComplexRational(sign * half)
            assert psi.quad[1][1] == ComplexRational(-sign * half)
            assert psi.quad[0][1] == ComplexRational(0)
            assert all(not v for v in psi.lin)

    def test_texts(self):
        psi0, psi1 = vacuum_functions()
        assert str(psi0) == "(1) * exp(-(1/2)*x^2 + (1/2)*y^2)"
        assert str(psi1) == "(1) * exp((1/2)*x^2 - (1/2)*y^2)"

    def test_one_pair_per_process(self):
        assert vacuum_functions() is vacuum_functions()
