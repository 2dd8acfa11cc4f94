"""Symbolic Gaussian-polynomial wavefunctions: operators, spectra, integrals."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fraction, random_polynomial, ratio
from test_acceptance import B_VALUES
from quadladder import cli, wavefn
from quadladder.adjoint import adjoint_matrix, validate_quadratic
from quadladder.bateman import build_hd, vacuum_functions
from quadladder.dsl import parse_to_polynomial
from quadladder.errors import (
    DivergentInputError,
    NotQuadraticError,
    NumericFailureError,
    VerificationError,
)
from quadladder.ladders import LadderOperator, _shifts_by, build_ladders
from quadladder.spectral import eigen_decompose
from quadladder.wavefn import (
    DIVERGENT,
    GaussianPolyFunction,
    GaussianPolySum,
    annihilation_check,
    _cp_mul,
    _gaussian_integral,
    _negative_definite,
    apply_operator,
    eigencheck,
    function_to_json,
    hermiticity_witness,
    inner_product,
    is_square_integrable,
    ladder_spectrum,
    spectrum_to_json,
)
from quadladder.weyl import (
    I,
    ZERO,
    ComplexRational,
    WeylPolynomial,
    _add_term,
    _common_denominator,
    _reduced,
)

HALF = Fraction(1, 2)
ONE = ComplexRational(1)


def bateman_setup(b):
    ham = build_hd(b)
    ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
    psi0, psi1 = vacuum_functions()
    return ham, ladders, psi0, psi1


def gauss_1d(a, lin=0, poly=None):
    """poly(x) * exp(a*x^2 + lin*x) on one mode."""
    return GaussianPolyFunction(
        num_modes=1,
        poly=poly if poly is not None else {(0,): ONE},
        quad=((ComplexRational._coerce(a),),),
        lin=(ComplexRational._coerce(lin),))


class TestApplyOperator:
    def test_position_multiplies(self):
        f = gauss_1d(-HALF)
        x = WeylPolynomial.position(1, 1)
        got = apply_operator(x, f)
        assert got.poly == {(1,): ONE}
        assert got.quad == f.quad

    def test_momentum_differentiates(self):
        # -i d/dx exp(a x^2) = -2ia x exp(a x^2)
        a = ComplexRational(Fraction(-3, 4))
        f = gauss_1d(a)
        p = WeylPolynomial.momentum(1, 1)
        got = apply_operator(p, f)
        assert got.poly == {(1,): ComplexRational(0, -2) * a}

    def test_product_is_composition(self, rng):
        f = gauss_1d(-HALF, lin=Fraction(1, 3), poly={(2,): ONE, (0,): ComplexRational(2)})
        for _ in range(25):
            a = random_polynomial(rng, 1, max_terms=3, max_degree=2)
            b = random_polynomial(rng, 1, max_terms=3, max_degree=2)
            lhs = apply_operator(a * b, f)
            rhs = apply_operator(a, apply_operator(b, f))
            assert lhs.poly == rhs.poly
            assert lhs.quad == rhs.quad
            assert lhs.lin == rhs.lin

    def test_accepts_hamiltonian_and_ladder(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        via_ham = apply_operator(ham, psi0)
        via_op = apply_operator(ham.op, psi0)
        assert via_ham.poly == via_op.poly
        via_ladder = apply_operator(ladders[2], psi0)
        assert via_ladder.poly == apply_operator(ladders[2].z, psi0).poly


class TestVacuumIdentities:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_energies(self, b):
        ham, _, psi0, psi1 = bateman_setup(b)
        assert eigencheck(ham, psi0) == ComplexRational(1)
        assert eigencheck(ham, psi1) == ComplexRational(-1)

    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_lowering_annihilates(self, b):
        _, ladders, psi0, psi1 = bateman_setup(b)
        z1, z2, z3, z4 = ladders
        assert annihilation_check(z1, psi0)
        assert annihilation_check(z2, psi0)
        assert annihilation_check(z3, psi1)
        assert annihilation_check(z4, psi1)
        assert not annihilation_check(z3, psi0)
        assert not annihilation_check(z1, psi1)

    def test_first_raised_states(self):
        _, ladders, psi0, _ = bateman_setup(Fraction(1))
        z3, z4 = ladders[2], ladders[3]
        up3 = apply_operator(z3, psi0)
        assert up3.quad == psi0.quad
        assert up3.poly == {(1, 0): ComplexRational(2), (0, 1): ComplexRational(-2)}
        up4 = apply_operator(z4, psi0)
        assert up4.poly == {(1, 0): ComplexRational(2), (0, 1): ComplexRational(2)}

    def test_double_raised_state_both_orders(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        z3, z4 = ladders[2], ladders[3]
        one_way = apply_operator(z3, apply_operator(z4, psi0))
        other_way = apply_operator(z4, apply_operator(z3, psi0))
        expected = {
            (2, 0): ComplexRational(4),
            (0, 2): ComplexRational(-4),
            (0, 0): ComplexRational(-4),
        }
        assert one_way.poly == expected
        assert other_way.poly == expected
        assert eigencheck(ham, one_way) == ComplexRational(3)


class TestEigencheck:
    def test_non_eigenfunction_returns_none(self):
        ham, _, psi0, _ = bateman_setup(Fraction(1))
        shifted = GaussianPolyFunction(
            num_modes=2, poly={(1, 0): ONE, (0, 0): ONE},
            quad=psi0.quad, lin=psi0.lin)
        assert eigencheck(ham, shifted) is None

    def test_mixture_of_energies_returns_none(self):
        ham, _, psi0, psi1 = bateman_setup(Fraction(1))
        assert eigencheck(ham, psi0 + psi1) is None

    def test_mixture_with_common_energy(self):
        ham = validate_quadratic(WeylPolynomial.constant(Fraction(5, 2), 1))
        mix = gauss_1d(-HALF) + gauss_1d(-1)
        assert isinstance(mix, GaussianPolySum)
        assert eigencheck(ham, mix) == ComplexRational(Fraction(5, 2))

    def test_zero_rejected(self):
        ham, _, psi0, _ = bateman_setup(Fraction(1))
        with pytest.raises(ValueError):
            eigencheck(ham, psi0 - psi0)

    def test_scaling_invariance(self):
        ham, _, psi0, _ = bateman_setup(Fraction(1))
        assert eigencheck(ham, psi0.scaled(ComplexRational(0, 7))) \
            == ComplexRational(1)


class TestLadderSpectrum:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1)])
    def test_family0_energies(self, b):
        ham, ladders, psi0, _ = bateman_setup(b)
        entries = ladder_spectrum(
            ham, psi0, ladders[2], ladders[3], 3, 3, family="vacuum0")
        assert len(entries) == 16
        for e in entries:
            expected = ComplexRational(e.n + e.m + 1, (e.m - e.n) * b / 2)
            assert e.energy == expected
            assert not e.annihilated
            assert e.family == "vacuum0"

    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1)])
    def test_family1_energies(self, b):
        ham, ladders, _, psi1 = bateman_setup(b)
        entries = ladder_spectrum(
            ham, psi1, ladders[0], ladders[1], 3, 3, family="vacuum1")
        for e in entries:
            expected = ComplexRational(-(e.n + e.m + 1), (e.m - e.n) * b / 2)
            assert e.energy == expected

    def test_rows_are_in_grid_order(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        entries = ladder_spectrum(ham, psi0, ladders[2], ladders[3], 2, 1)
        assert [(e.n, e.m) for e in entries] \
            == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_lowering_gives_annihilated_entries(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        entries = ladder_spectrum(ham, psi0, ladders[0], ladders[1], 1, 1)
        by_nm = {(e.n, e.m): e for e in entries}
        assert not by_nm[(0, 0)].annihilated
        for nm in ((0, 1), (1, 0), (1, 1)):
            assert by_nm[nm].annihilated
            assert by_nm[nm].function is None

    def test_annihilation_chains(self):
        # each annihilator commutes with exactly one raising operator and
        # therefore keeps killing every state of that chain
        ham, ladders, psi0, psi1 = bateman_setup(Fraction(1))
        z1, z2, z3, z4 = ladders
        chains = [(z1, z3, psi0), (z2, z4, psi0), (z3, z1, psi1), (z4, z2, psi1)]
        for killer, raiser, state in chains:
            for _ in range(6):
                assert annihilation_check(killer, state)
                state = apply_operator(raiser, state)

    def test_float_frequency_ladder_rejected(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        import dataclasses
        stripped = dataclasses.replace(ladders[2], lam_exact=None)
        with pytest.raises(ValueError):
            ladder_spectrum(ham, psi0, stripped, ladders[3], 1, 1)

    def test_bad_vacuum_rejected(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        not_eigen = psi0 + GaussianPolyFunction(2, {(1, 0): ONE}, psi0.quad, psi0.lin)
        for vacuum in (psi0 - psi0, not_eigen):
            with pytest.raises(ValueError, match="vacuum"):
                ladder_spectrum(ham, vacuum, ladders[2], ladders[3], 1, 1)

    @pytest.mark.parametrize("which, message", [
        ("a", "raise_a fails H Z - Z H = lambda Z for lambda = 2-1/4*i"),
        ("b", "raise_b fails H Z - Z H = lambda Z for lambda = 2+1/4*i"),
    ], ids=["a", "b"])
    def test_wrong_frequency_fails_the_certificate(self, which, message):
        # the raisers are right, so only the certificate H Z - Z H = lambda Z
        # can notice that the energies predicted from a wrong frequency are off
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raise_a, raise_b = ladders[2], ladders[3]
        if which == "a":
            raise_a = dataclasses.replace(raise_a, lam_exact=raise_a.lam_exact + 1)
        else:
            raise_b = dataclasses.replace(raise_b, lam_exact=raise_b.lam_exact + 1)
        with pytest.raises(VerificationError) as failure:
            ladder_spectrum(ham, psi0, raise_a, raise_b, 1, 1)
        assert str(failure.value) == message

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_corrupted_raiser_fails_the_certificate(self, which):
        # one coefficient of one raiser doubled, each in turn: the state it
        # raises is no eigenfunction, and M c = lambda c refuses the raiser
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        for index in range(4):
            raisers = {"a": ladders[2], "b": ladders[3]}
            coefficients = list(raisers[which].coefficients)
            assert coefficients[index]
            coefficients[index] *= 2
            raisers[which] = dataclasses.replace(
                raisers[which], coefficients=tuple(coefficients))
            with pytest.raises(VerificationError,
                               match=f"^raise_{which} fails H Z - Z H = lambda Z"):
                ladder_spectrum(ham, psi0, raisers["a"], raisers["b"], 1, 1)
            assert eigencheck(ham, apply_operator(raisers[which], psi0)) is None

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_raisers_of_another_b_fail_the_certificate(self, which):
        # the Bateman ladders keep their coefficients as b moves, but not
        # their frequencies: raisers built at b = 1 shift H at b = 1/2 by
        # another lambda than they carry
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        _, other, _, _ = bateman_setup(Fraction(1))
        raisers = {"a": ladders[2], "b": ladders[3]}
        raisers[which] = other[2] if which == "a" else other[3]
        assert raisers[which].coefficients == (ladders[2] if which == "a"
                                               else ladders[3]).coefficients
        lam = raisers[which].lam_exact
        with pytest.raises(VerificationError) as failure:
            ladder_spectrum(ham, psi0, raisers["a"], raisers["b"], 1, 1)
        assert str(failure.value) == (
            f"raise_{which} fails H Z - Z H = lambda Z for lambda = {lam}")

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_raiser_with_another_mode_count_is_refused_at_once(self, which):
        # the certificate zips c against the rows of M, so a raiser of the
        # wrong length must be refused before it, not when a state is read
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raisers = {"a": ladders[2], "b": ladders[3]}
        raisers[which] = dataclasses.replace(
            raisers[which], coefficients=raisers[which].coefficients[:2])
        with pytest.raises(ValueError, match="^operator and function mode counts differ$"):
            ladder_spectrum(ham, psi0, raisers["a"], raisers["b"], 2, 2)

    def test_probe_images_outgrow_the_family_width(self, monkeypatch):
        # at (n_max, m_max) = (1, 0) the states and H v need digits up to 3,
        # 2 bits, but the width is set for max(0 + 1 + 0, 2) + 2 = 4, which
        # needs 3; H's map is built at that width, a raiser's map only when
        # a state is read
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        widths = []

        def recording(op, f, bits):
            widths.append(bits)
            return sector_map(op, f, bits)

        sector_map = wavefn._sector_map
        monkeypatch.setattr(wavefn, "_sector_map", recording)
        entries = ladder_spectrum(ham, psi0, ladders[2], ladders[3], 1, 0)
        assert (max(map(sum, psi0.poly)) + 1 + 0 + ham.op.degree).bit_length() == 2
        assert [e.energy for e in entries] == [1, 2 - ComplexRational(0, 1) / 4]
        assert widths == [3]
        raised = entries[1].function
        assert widths == [3, 3]
        assert eigencheck(ham, raised) == entries[1].energy

    @pytest.mark.parametrize("b", (Fraction(0),) + B_VALUES)
    @pytest.mark.parametrize("which", [0, 1])
    def test_energies_are_the_closed_form(self, b, which):
        ham, vacuum, raise_a, raise_b = family_setup(b, which)
        e_vac = eigencheck(ham, vacuum)
        entries = ladder_spectrum(ham, vacuum, raise_a, raise_b, 4, 3)
        assert [(e.n, e.m) for e in entries] == [
            (n, m) for n in range(5) for m in range(4)]
        for e in entries:
            assert e.energy == e_vac + e.n * raise_a.lam_exact + e.m * raise_b.lam_exact

    def test_non_quadratic_hamiltonian_is_refused(self):
        # the vacuum is an eigenfunction of H + (x + i px)^3, yet the states
        # (1, 2), (2, 1) and (2, 2) are not: M c = lambda c proves
        # [H, Z] = lambda Z for a quadratic H only.  A constant term is
        # quadratic enough.
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raise_a, raise_b = ladders[2], ladders[3]
        z = WeylPolynomial.position(1, 2) + I * WeylPolynomial.momentum(1, 2)
        cubic = dataclasses.replace(ham, op=ham.op + z * z * z)
        with pytest.raises(NotQuadraticError, match="degree 1, 3"):
            ladder_spectrum(cubic, psi0, raise_a, raise_b, 2, 2)
        for n, m in ((1, 2), (2, 1), (2, 2)):
            f = psi0
            for lad in [raise_b] * m + [raise_a] * n:
                f = apply_operator(lad, f)
            assert eigencheck(ham, f) is not None
            assert eigencheck(cubic, f) is None
        shifted = dataclasses.replace(ham, op=ham.op + WeylPolynomial.constant(3, 2))
        assert [e.energy for e in ladder_spectrum(shifted, psi0, raise_a, raise_b, 1, 1)] \
            == [e.energy + 3 for e in ladder_spectrum(ham, psi0, raise_a, raise_b, 1, 1)]


# ---------------------------------------------------------------------------
# reference: the sector map expanded on exponent tuples in ComplexRational
# arithmetic, one canonical weight per term after each D_j
# ---------------------------------------------------------------------------

def _left_d(terms, j, quad, lin):
    """D_j composed from the left onto {(gamma, delta): w} = sum w x^gamma d^delta.

    D_j = d/dx_j + L_j with L_j = sum_t 2*quad[j][t]*x_t + lin[j]; moving
    d/dx_j past x^gamma leaves gamma_j * x^(gamma - e_j) behind.
    """
    out = {}
    for (gamma, delta), w in terms.items():
        if gamma[j]:
            lowered = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]
            _add_term(out, (lowered, delta), w * gamma[j])
        _add_term(out, (gamma, delta[:j] + (delta[j] + 1,) + delta[j + 1:]), w)
        for t, s in enumerate(quad[j]):
            if s:
                raised = gamma[:t] + (gamma[t] + 1,) + gamma[t + 1:]
                _add_term(out, (raised, delta), w * (2 * s))
        if lin[j]:
            _add_term(out, (gamma, delta), w * lin[j])
    return out


def _expanded(op, f):
    """{(delta, shift): w}: the WeylPolynomial op in f's sector as terms
    w x^shift d^delta, from c (-i)^|beta| x^alpha D^beta term by term."""
    k = f.num_modes
    zero = (0,) * k
    terms = {}
    for mono, coeff in op.terms.items():
        alpha, beta = mono[:k], mono[k:]
        d_beta = {(zero, zero): coeff * ComplexRational(0, -1) ** sum(beta)}
        for j, b in enumerate(beta):
            for _ in range(b):
                d_beta = _left_d(d_beta, j, f.quad, f.lin)
        for (gamma, delta), w in d_beta.items():
            shift = tuple(a + g - d for a, g, d in zip(alpha, gamma, delta))
            _add_term(terms, (delta, shift), w)
    return terms


def reference_map(op, f, bits):
    """_expanded packed as wavefn._sector_map packs its map."""
    terms = _expanded(op, f)
    den, pairs = _common_denominator(terms.values())
    groups = {}
    for (delta, shift), (a, b) in zip(terms, pairs):
        groups.setdefault(delta, []).append((wavefn._pack(shift, bits), a, b))
    return den, bits, tuple(
        (tuple((j * bits, d) for j, d in enumerate(delta) if d), group)
        for delta, group in groups.items())


def map_terms(smap):
    """smap's denominator, width and terms, independent of their order."""
    den, bits, groups = smap
    return den, bits, sorted((derivs, shift, a, b)
                             for derivs, group in groups for shift, a, b in group)


# ---------------------------------------------------------------------------
# oracle: the ladder spectrum on exponent tuples, one canonical coefficient
# per term between applications (the representation before packed exponents)
# ---------------------------------------------------------------------------

def _tuple_map(op, f):
    """op in f's sector as ``(den, [(orders, [(shift tuple, a, b)])])``."""
    terms = _expanded(op, f)
    den, pairs = _common_denominator(terms.values())
    groups = {}
    for (delta, shift), (a, b) in zip(terms, pairs):
        groups.setdefault(delta, []).append((shift, a, b))
    return den, [([(j, d) for j, d in enumerate(delta) if d], group)
                 for delta, group in groups.items()]


def _tuple_apply(smap, f):
    den, groups = smap
    f_den, f_pairs = _common_denominator(f.poly.values())
    acc = {}
    for e, (fa, fb) in zip(f.poly, f_pairs):
        for derivs, group in groups:
            ff = 1
            for j, d in derivs:
                ff *= math.perm(e[j], d)
            for shift, wa, wb in group:
                out = tuple(x + y for x, y in zip(e, shift))
                re, im = acc.get(out, (0, 0))
                acc[out] = (re + ff * (wa * fa - wb * fb),
                            im + ff * (wa * fb + wb * fa))
    return GaussianPolyFunction(f.num_modes, {
        e: _reduced(a, b, den * f_den) for e, (a, b) in acc.items() if a or b},
        f.quad, f.lin)


def oracle_spectrum(ham, vacuum, raise_a, raise_b, n_max, m_max):
    """[(n, m, energy, annihilated, function)] with H checked on every state."""
    h_map = _tuple_map(ham.op, vacuum)
    a_map = _tuple_map(raise_a.z, vacuum)
    b_map = _tuple_map(raise_b.z, vacuum)
    e_vac = ratio(_tuple_apply(h_map, vacuum).poly, vacuum.poly)
    row = [vacuum]
    for _ in range(m_max):
        row.append(_tuple_apply(b_map, row[-1]))
    grid = [row]
    for _ in range(n_max):
        grid.append([_tuple_apply(a_map, f) for f in grid[-1]])
    out = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            f = grid[n][m]
            energy = e_vac + n * raise_a.lam_exact + m * raise_b.lam_exact
            if not f.is_zero:
                assert ratio(_tuple_apply(h_map, f).poly, f.poly) == energy
            out.append((n, m, energy, f.is_zero, None if f.is_zero else f))
    return out


def spectrum_rows(entries):
    return [(e.n, e.m, e.energy, e.annihilated, e.function) for e in entries]


class TestPackedSpectrum:
    """ladder_spectrum on packed exponents against the tuple-keyed oracle."""

    @pytest.mark.parametrize("b", B_VALUES)
    @pytest.mark.parametrize("n_max", range(7))
    def test_both_families_match_the_oracle(self, b, n_max):
        ham, ladders, psi0, psi1 = bateman_setup(b)
        for vacuum, raise_a, raise_b in ((psi0, ladders[2], ladders[3]),
                                         (psi1, ladders[0], ladders[1]),
                                         (psi0, ladders[0], ladders[3])):
            args = (ham, vacuum, raise_a, raise_b, n_max, n_max)
            assert spectrum_rows(ladder_spectrum(*args)) == oracle_spectrum(*args)

    @pytest.mark.parametrize("offset", [1, 3])
    def test_states_of_energy_zero_pass_the_check(self, offset):
        # H - offset keeps the ladders and moves the vacuum energy 1 to
        # 1 - offset, so state (k, k) with 2k + 1 = offset has energy 0 and
        # H annihilates it: its check must accept an empty H f
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        shifted = validate_quadratic(ham.op - offset)
        args = (shifted, psi0, ladders[2], ladders[3], 3, 3)
        entries = ladder_spectrum(*args)
        assert spectrum_rows(entries) == oracle_spectrum(*args)
        k = (offset - 1) // 2
        zero_state = next(e for e in entries if (e.n, e.m) == (k, k))
        assert zero_state.energy == 0 and not zero_state.annihilated
        assert apply_operator(shifted, zero_state.function).is_zero

    @pytest.mark.parametrize("scale_a, scale_b, scale_vacuum", [
        (ComplexRational(1, 1) / 2, Fraction(1, 3), 1),
        (Fraction(1, 6), Fraction(1, 6), 1),
        (Fraction(2, 3), Fraction(3, 2), Fraction(1, 4)),
    ])
    def test_content_is_divided_out_exactly(self, scale_a, scale_b, scale_vacuum):
        # Bateman ladders have Gaussian-integer coefficients, so their states
        # never share a factor with the denominator; scaled ladders (still
        # ladders, with the same frequencies) make states that do
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raise_a, raise_b = (
            dataclasses.replace(lad, coefficients=tuple(c * s for c in lad.coefficients))
            for lad, s in ((ladders[2], scale_a), (ladders[3], scale_b)))
        args = (ham, psi0.scaled(scale_vacuum), raise_a, raise_b, 3, 3)
        assert spectrum_rows(ladder_spectrum(*args)) == oracle_spectrum(*args)

    @pytest.mark.parametrize("state, expected", [
        ((4, {0: (2, 6), 1: (4, 10)}), (2, {0: (1, 3), 1: (2, 5)})),
        ((2, {0: (1, 0), 1: (2, 2)}), None),     # the first real part blocks 2
        ((2, {0: (2, 2), 1: (2, 1)}), None),     # the last imaginary part does
        ((2, {0: (2, 2), 1: (1, 2)}), None),     # the last real part does
    ])
    def test_content_takes_every_numerator(self, state, expected):
        # the identity map leaves the numerators alone, so what comes back
        # is the state divided by the gcd of its denominator and numerators
        identity = wavefn._sector_map(
            WeylPolynomial.constant(1, 2), vacuum_functions()[0], 1)
        den, poly = wavefn._raised(identity, state)
        assert (den, {e: tuple(v) for e, v in poly.items()}) == (expected or state)

    @pytest.mark.parametrize("n_max", [2, 3, 6])
    def test_raised_vacuum_needs_wide_digits(self, n_max):
        # a raised state as the vacuum: exponents beyond 2^3 from the start
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        vacuum = psi0
        for _ in range(5):
            vacuum = apply_operator(ladders[2], apply_operator(ladders[3], vacuum))
        assert max(max(e) for e in vacuum.poly) == 10
        args = (ham, vacuum, ladders[2], ladders[3], n_max, n_max)
        entries = ladder_spectrum(*args)
        assert spectrum_rows(entries) == oracle_spectrum(*args)
        assert max(max(e) for e in entries[-1].function.poly) == 10 + 2 * n_max


# ---------------------------------------------------------------------------
# the certificate: no state is checked against H, so the states a report
# never reads are raised here and checked against apply_operator and H
# ---------------------------------------------------------------------------

def family_setup(b, which):
    """H, vacuum and raisers of family ``which``, chosen as the CLI does."""
    ham, ladders, psi0, psi1 = bateman_setup(b)
    raising = [lad for lad in ladders if lad.lam.real >= 0]
    lowering = [lad for lad in ladders if lad.lam.real < 0]
    return (ham, psi0, *raising) if which == 0 else (ham, psi1, *lowering)


class TestCertifiedStates:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(b=st.fractions(min_value=0, max_value=3, max_denominator=8),
           which=st.sampled_from([0, 1]),
           n_max=st.integers(0, 6), m_max=st.integers(0, 6))
    def test_read_states_are_raised_eigenfunctions(self, b, which, n_max, m_max):
        ham, vacuum, raise_a, raise_b = family_setup(b, which)
        entries = ladder_spectrum(ham, vacuum, raise_a, raise_b, n_max, m_max)
        column = [vacuum]
        for _ in range(m_max):
            column.append(apply_operator(raise_b, column[-1]))
        expected = {}
        for m, f in enumerate(column):
            for n in range(n_max + 1):
                expected[n, m] = f
                f = apply_operator(raise_a, f)
        for entry in entries:
            assert not entry.annihilated
            assert entry.function == expected[entry.n, entry.m]
            assert eigencheck(ham, entry.function) == entry.energy

    @pytest.mark.parametrize("n_max, m_max, bits", [
        (5, 0, 3), (2, 3, 3), (0, 5, 3), (6, 0, 4), (3, 3, 4), (0, 6, 4)])
    def test_states_on_both_sides_of_the_width_step(self, n_max, m_max, bits):
        # digits up to n_max + m_max + 2 = 7 fit in 3 bits, 8 needs 4
        ham, psi0, raise_a, raise_b = family_setup(Fraction(3, 7), 0)
        entries = ladder_spectrum(ham, psi0, raise_a, raise_b, n_max, m_max)
        f = psi0
        for lad in [raise_b] * m_max + [raise_a] * n_max:
            f = apply_operator(lad, f)
        assert entries[-1].state[0] == bits
        assert entries[-1].function == f
        for entry in entries:
            assert eigencheck(ham, entry.function) == entry.energy

    def test_the_certificate_holds_in_any_sector(self):
        # M c = lambda c reads no sector: for each of the four ladders the
        # right frequency passes, and one off by 1, by i or in sign fails
        for b in B_VALUES:
            ham, ladders, _, _ = bateman_setup(b)
            for lad in ladders:
                assert _shifts_by(ham, lad.coefficients, lad.lam_exact)
                for wrong in (lad.lam_exact + 1, lad.lam_exact + I, -lad.lam_exact):
                    assert not _shifts_by(ham, lad.coefficients, wrong)


# ---------------------------------------------------------------------------
# sector maps against the reference, ladder maps and states converted on read
# ---------------------------------------------------------------------------

gaussian_rationals = st.builds(
    lambda a, b, c, d: ComplexRational(Fraction(a, c), Fraction(b, d)),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 5), st.integers(1, 5))


@st.composite
def gaussian_functions(draw, k):
    """A K-mode function with random symmetric S, l and polynomial part."""
    upper = [[draw(gaussian_rationals) for _ in range(k)] for _ in range(k)]
    quad = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(k))
                 for i in range(k))
    lin = tuple(draw(gaussian_rationals) for _ in range(k))
    poly = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * k), gaussian_rationals, max_size=5))
    return GaussianPolyFunction(k, poly, quad, lin)


@st.composite
def sectors_and_ladders(draw):
    """A function from gaussian_functions and a ladder with random
    Gaussian-rational coefficients."""
    k = draw(st.integers(1, 3))
    f = draw(gaussian_functions(k))
    coefficients = tuple(draw(gaussian_rationals) for _ in range(2 * k))
    lad = LadderOperator(coefficients=coefficients, lam=0j, lam_exact=None)
    return f, lad


def applied(smap, f, bits):
    """smap applied to f through the kernel, as exact values."""
    den, poly = wavefn._packed(f, bits)
    return {e: _reduced(a, b, den * smap[0])
            for e, (a, b) in wavefn._kernel(smap, poly).items()}


@st.composite
def weyl_polynomials(draw, k):
    """A K-mode operator of degree <= 3: random words and x_a*p_a words."""
    words = st.lists(st.integers(0, 2 * k - 1), max_size=3).map(
        lambda flats: tuple(flats.count(t) for t in range(2 * k)))
    mixed = st.integers(0, k - 1).map(
        lambda a: tuple(int(t in (a, a + k)) for t in range(2 * k)))
    return WeylPolynomial(k, draw(st.dictionaries(
        st.one_of(words, mixed), gaussian_rationals, max_size=4)))


class TestSectorMap:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sectors_and_ladders(), st.data())
    def test_matches_the_reference_expansion(self, case, data):
        # random operators, a constant, the zero operator and a ladder both
        # as its coefficients and as a WeylPolynomial, on K = 1-3 sectors
        f, lad = case
        k = f.num_modes
        constant = WeylPolynomial.constant(data.draw(gaussian_rationals), k)
        for op in (data.draw(weyl_polynomials(k)), constant,
                   WeylPolynomial(k, {}), lad, lad.z):
            expansion = lad.z if op is lad else op
            bits = (max(map(sum, f.poly), default=0)
                    + expansion.degree).bit_length()
            smap = wavefn._sector_map(op, f, bits)
            reference = reference_map(expansion, f, bits)
            assert applied(smap, f, bits) == applied(reference, f, bits)
            assert map_terms(smap) == map_terms(reference)

    @pytest.mark.parametrize("check", [apply_operator, annihilation_check])
    def test_refusals_keep_their_texts(self, check):
        ham, ladders, _, _ = bateman_setup(Fraction(1))
        for op in (ham, ham.op, ladders[0], ladders[0].z):
            with pytest.raises(ValueError, match=(
                    "^operator and function mode counts differ$")):
                check(op, gauss_1d(-1))
        with pytest.raises(TypeError, match="^cannot interpret str as an operator$"):
            check("x1", gauss_1d(-1))


@st.composite
def killed_functions(draw):
    """A ladder Z = alpha^T x + beta^T p, a function f with a non-constant
    polynomial part and nonzero l, and whether Z kills f.  K = 2 or 3 with
    beta = (b_1, b_2, 0) and b_1 != 0: l = r (b_2, -b_1, l_3) and P a
    polynomial in w = b_2 x_1 - b_1 x_2 and x_3 are orthogonal to beta, and
    alpha = 2i S beta, so Z kills f.  One of alpha, l and P may then be
    nudged off the identity: alpha_1 + t, l + t conj(beta) or x_1 P."""
    k = draw(st.integers(2, 3))
    nonzero = gaussian_rationals.filter(bool)
    f = draw(gaussian_functions(k))
    beta = (draw(nonzero), draw(gaussian_rationals)) + (ZERO,) * (k - 2)
    w = {(1, 0, 0)[:k]: beta[1], (0, 1, 0)[:k]: -beta[0]}    # _cp_mul drops zeros
    poly = {(0,) * k: draw(nonzero)}
    for _ in range(draw(st.integers(1, 3))):
        poly = _cp_mul(poly, w)
    if k == 3:
        poly = _cp_mul(poly, {(0, 0, 0): ONE, (0, 0, draw(st.integers(1, 2))): draw(nonzero)})
    r = draw(nonzero)
    lin = [r * beta[1], -r * beta[0]] + [draw(gaussian_rationals)] * (k - 2)
    alpha = [2 * I * sum((f.quad[i][j] * beta[j] for j in range(k)), ZERO)
             for i in range(k)]
    nudge, t = draw(st.integers(0, 3)), draw(nonzero)
    if nudge == 1:
        alpha[0] += t
    elif nudge == 2:
        lin = [v + t * bj.conjugate() for v, bj in zip(lin, beta)]
    elif nudge == 3:
        poly = _cp_mul(poly, {(1,) + (0,) * (k - 1): ONE})
    g = GaussianPolyFunction(k, poly, f.quad, tuple(lin))
    lad = LadderOperator(coefficients=tuple(alpha) + beta, lam=0j, lam_exact=None)
    return lad, g, nudge == 0


def raised_states(ham, vacuum, raise_a, raise_b):
    return [e.function for e in ladder_spectrum(ham, vacuum, raise_a, raise_b, 2, 2)
            if not e.annihilated]


class TestClosedFormLadders:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sectors_and_ladders())
    def test_map_matches_the_expanded_sector_map(self, case):
        # the map read from the coefficients is the map of lad.z
        f, lad = case
        bits = (max(map(sum, f.poly), default=0) + 1).bit_length()
        ladder, expanded = (wavefn._sector_map(op, f, bits) for op in (lad, lad.z))
        assert applied(ladder, f, bits) == applied(expanded, f, bits)
        assert map_terms(ladder) == map_terms(expanded)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sectors_and_ladders(), st.data())
    def test_applied_ladder_matches_its_expansion(self, case, data):
        # apply_operator builds a ladder's closed-form map, on sums as well,
        # and annihilation_check's identity agrees with its kernel path
        f, lad = case
        g = f + data.draw(gaussian_functions(f.num_modes))
        for h in (f, g):
            assert apply_operator(lad, h) == apply_operator(lad.z, h)
            assert annihilation_check(lad, h) == annihilation_check(lad.z, h)

    def test_mode_counts_must_agree(self):
        _, ladders, _, _ = bateman_setup(Fraction(1))
        with pytest.raises(ValueError, match="mode counts"):
            annihilation_check(ladders[0], gauss_1d(-1))

    @pytest.mark.parametrize("b", B_VALUES)
    def test_annihilation_agrees_with_apply_operator(self, b):
        ham, ladders, psi0, psi1 = bateman_setup(b)
        z1, z2, z3, z4 = ladders
        states = (raised_states(ham, psi0, z3, z4) + raised_states(ham, psi1, z1, z2)
                  + [psi0 - psi0])
        for lad in ladders:
            for f in states:
                assert annihilation_check(lad, f) == apply_operator(lad.z, f).is_zero

    def test_annihilation_of_sums(self):
        # S' = S + w w^T with w^T beta = 0 keeps 2i S' beta = alpha, so z1
        # kills exp(x^T S' x) as well as psi0, and a sum of the two
        _, ladders, psi0, psi1 = bateman_setup(Fraction(1, 2))
        z1 = ladders[0]
        beta = z1.coefficients[2:]
        w = (beta[1], -beta[0])
        quad = tuple(tuple(psi0.quad[i][j] + w[i] * w[j] for j in range(2))
                     for i in range(2))
        other = GaussianPolyFunction.pure_gaussian(quad, psi0.lin)
        for f, killed in ((psi0 + other, True), (psi0 + psi1, False),
                          (psi1 + other, False)):
            assert isinstance(f, GaussianPolySum)
            assert annihilation_check(z1, f) is killed
            assert apply_operator(z1.z, f).is_zero is killed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(sectors_and_ladders(),
                     killed_functions().map(lambda case: (case[1], case[0]))))
    def test_pure_flag_matches_the_map(self, case):
        # the coefficient identity against the map-derived flag: every term
        # of the ladder's sector map carries a derivative.  Random ladders
        # are almost never pure; killed_functions' are, unless alpha or l
        # was nudged off the identity
        f, lad = case
        bits = (max(map(sum, f.poly), default=0) + 1).bit_length()
        smap = wavefn._sector_map(lad, f, bits)
        assert wavefn._pure_derivation(lad, f) is all(d for d, _ in smap[2])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(killed_functions())
    def test_identity_matches_the_kernel(self, case):
        # the identity path (a LadderOperator) against the kernel path (its
        # WeylPolynomial) and the applied operator, on kills and near misses
        lad, f, killed = case
        assert annihilation_check(lad, f) is killed
        assert annihilation_check(lad.z, f) is killed
        assert apply_operator(lad.z, f).is_zero is killed

    @pytest.mark.parametrize("n_max", [0, 1, 3])
    def test_one_sector_map_per_spectrum(self, monkeypatch, n_max):
        # H's map once; a raiser's once, when the first state is raised
        # along it (B along row 0, then A), and none for a direction with
        # no rows to raise, however many states are read
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raise_a, raise_b = ladders[2], ladders[3]
        built = []

        def counting(op, f, bits):
            built.append(op)
            return sector_map(op, f, bits)

        sector_map = wavefn._sector_map
        monkeypatch.setattr(wavefn, "_sector_map", counting)
        for n, m in ((n_max, n_max), (n_max, 2), (2, n_max)):
            built.clear()
            entries = ladder_spectrum(ham, psi0, raise_a, raise_b, n, m)
            assert len(built) == 1 and built[0] is ham.op
            entries[-1].state
            expected = [ham.op] + [raise_b] * (m > 0) + [raise_a] * (n > 0)
            assert len(built) == len(expected)
            assert all(op is want for op, want in zip(built, expected))
            for entry in entries:
                entry.function
            assert len(built) == len(expected)

    def test_one_state_builds_each_needed_map_once(self, monkeypatch):
        # state (0, 2) needs raise_b's map alone, (2, 0) raise_a's alone;
        # reading either again, or (2, 2), builds nothing twice
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        raise_a, raise_b = ladders[2], ladders[3]
        built = []

        def counting(op, f, bits):
            built.append(op)
            return sector_map(op, f, bits)

        sector_map = wavefn._sector_map
        monkeypatch.setattr(wavefn, "_sector_map", counting)
        for first, needed in (((0, 2), raise_b), ((2, 0), raise_a)):
            entries = {(e.n, e.m): e for e in
                       ladder_spectrum(ham, psi0, raise_a, raise_b, 2, 2)}
            built.clear()
            entries[first].state
            entries[first].function
            assert len(built) == 1 and built[0] is needed
            entries[2, 2].function
            assert len(built) == 2 and {id(op) for op in built} == {id(raise_a), id(raise_b)}
            assert entries[2, 2].function == apply_operator(
                raise_a, apply_operator(raise_a, apply_operator(
                    raise_b, apply_operator(raise_b, psi0))))

    def test_reports_build_no_raiser_map(self, monkeypatch):
        # a families report reads no state, so only H's map is built, once
        # per family
        expected = cli.run_report(b=Fraction(1, 2), ladder_states=4)
        built = []

        def counting(op, f, bits):
            built.append(op)
            return sector_map(op, f, bits)

        sector_map = wavefn._sector_map
        monkeypatch.setattr(wavefn, "_sector_map", counting)
        assert cli.run_report(b=Fraction(1, 2), ladder_states=4) == expected
        assert len(built) == 2
        assert all(isinstance(op, WeylPolynomial) and op.degree == 2 for op in built)

    def test_reports_convert_no_state(self, monkeypatch):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        entries = ladder_spectrum(ham, psi0, ladders[2], ladders[3], 3, 3)
        expected_doc = spectrum_to_json(entries)
        expected_report = cli.run_report(b=Fraction(1, 2), ladder_states=3)

        def refuse(*args):
            raise AssertionError("a state was converted")

        monkeypatch.setattr(wavefn, "_unpacked", refuse)
        entries = ladder_spectrum(ham, psi0, ladders[2], ladders[3], 3, 3)
        assert spectrum_to_json(entries) == expected_doc
        assert cli.run_report(b=Fraction(1, 2), ladder_states=3) == expected_report
        with pytest.raises(AssertionError, match="converted"):
            entries[1].function

    def test_reports_raise_no_state(self, monkeypatch):
        # every raiser of a Bateman family has a term free of derivatives,
        # so no state vanishes and none is raised; H runs on each vacuum once
        expected = cli.run_report(b=Fraction(1, 2), ladder_states=4)
        calls = []

        def counting(smap, poly):
            calls.append(len(poly))
            return eigenvalue(smap, poly)

        def refuse(*args):
            raise AssertionError("a state was raised")

        eigenvalue = wavefn._eigenvalue
        monkeypatch.setattr(wavefn, "_eigenvalue", counting)
        monkeypatch.setattr(wavefn, "_raised", refuse)
        assert cli.run_report(b=Fraction(1, 2), ladder_states=4) == expected
        assert calls == [1, 1]
        # a lowering ladder passed as a raiser is a pure derivation here, so
        # deciding its entries raises states
        ham, ladders, psi0, _ = bateman_setup(Fraction(1, 2))
        entries = ladder_spectrum(ham, psi0, ladders[0], ladders[3], 1, 1)
        assert not entries[1].annihilated
        with pytest.raises(AssertionError, match="raised"):
            entries[2].annihilated

    def test_function_is_converted_once(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        entry = ladder_spectrum(ham, psi0, ladders[2], ladders[3], 1, 1)[3]
        assert entry.function is entry.function
        assert entry.function == apply_operator(
            ladders[2], apply_operator(ladders[3], psi0))


def eigenvalue(op, f):
    """f's eigenvalue under op through the one routine that reads them."""
    smap = wavefn._map(op, f)
    return wavefn._eigenvalue(smap, wavefn._packed(f, smap[1])[1])


class TestEigenvalueRoutine:
    """_eigenvalue against ratio on the exact image of apply_operator."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sectors_and_ladders(), gaussian_rationals)
    def test_matches_the_ratio_of_the_image(self, case, c):
        # a ladder's image and its expansion's mostly have extra exponents;
        # a constant's image is proportional and the zero operator's empty
        f, lad = case
        if f.is_zero:
            return
        k = f.num_modes
        for op in (lad, lad.z, WeylPolynomial.constant(c, k),
                   WeylPolynomial.constant(c, k) + lad.z, WeylPolynomial(k, {})):
            assert eigenvalue(op, f) == ratio(apply_operator(op, f).poly, f.poly)

    @pytest.mark.parametrize("b", B_VALUES)
    def test_raised_states_are_proportional(self, b):
        ham, ladders, psi0, psi1 = bateman_setup(b)
        entries = (ladder_spectrum(ham, psi0, ladders[2], ladders[3], 2, 2)
                   + ladder_spectrum(ham, psi1, ladders[0], ladders[1], 2, 2))
        for entry in entries:
            assert eigenvalue(ham.op, entry.function) == entry.energy
            assert eigenvalue(ham.op, entry.function) == ratio(
                apply_operator(ham, entry.function).poly, entry.function.poly)

    def test_empty_image_reads_zero(self):
        _, ladders, psi0, psi1 = bateman_setup(Fraction(1, 2))
        for lad, f in ((ladders[0], psi0), (ladders[2], psi1)):
            assert apply_operator(lad, f).is_zero
            assert eigenvalue(lad, f) == ZERO

    @pytest.mark.parametrize("poly", [
        {(0,): ONE, (1,): ONE}, {(1,): ONE, (0,): ONE},
        {(2,): ONE, (0,): ComplexRational(3)},
    ])
    @pytest.mark.parametrize("op", ["x1", "p1", "x1*p1", "x1^2", "x1*p1 + 1"])
    def test_extra_and_missing_exponents(self, poly, op):
        # x raises every exponent, p lowers them, x*p = -i x d/dx loses the
        # constant, and x*p + 1 keeps every exponent but not the ratio
        f = gauss_1d(0, poly=poly)
        op = parse_to_polynomial(op)
        expected = ratio(apply_operator(op, f).poly, f.poly)
        assert expected is None
        assert eigenvalue(op, f) is None


class TestSquareIntegrability:
    def test_bateman_vacua_are_not(self):
        _, _, psi0, psi1 = bateman_setup(Fraction(1))
        assert not is_square_integrable(psi0)
        assert not is_square_integrable(psi1)
        assert not is_square_integrable(psi0 + psi1)

    def test_isotropic_gaussian_is(self):
        f = GaussianPolyFunction.pure_gaussian(
            ((ComplexRational(-HALF), ComplexRational(0)),
             (ComplexRational(0), ComplexRational(-HALF))))
        assert is_square_integrable(f)

    def test_imaginary_part_is_irrelevant(self):
        assert is_square_integrable(gauss_1d(ComplexRational(-HALF, 5)))
        assert not is_square_integrable(gauss_1d(ComplexRational(0, -5)))

    def test_zero_counts_as_integrable(self):
        f = gauss_1d(-HALF)
        assert is_square_integrable(f - f)

    def test_sylvester_pivots_match_eigenvalues(self, rng):
        """Negative definite iff the largest eigenvalue is negative, on
        random rational symmetric matrices: general (mostly indefinite),
        -B^T B with square B, and singular -B^T B with B one row short."""
        verdicts = {True: 0, False: 0}
        for trial in range(600):
            n = rng.randint(1, 4)
            kind = trial % 3
            if kind == 0:
                mat = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
                mat = [[mat[i][j] + mat[j][i] for j in range(n)] for i in range(n)]
            else:
                b = [[random_fraction(rng) for _ in range(n)]
                     for _ in range(n - (kind == 2))]
                mat = [[-sum((row[i] * row[j] for row in b), Fraction(0))
                        for j in range(n)] for i in range(n)]
            top = float(np.max(np.linalg.eigvalsh(np.array(mat, dtype=float))))
            if kind == 2:
                assert abs(top) < 1e-9
                assert not _negative_definite(mat)
            elif abs(top) > 1e-9:
                verdicts[top < 0] += 1
                assert _negative_definite(mat) == (top < 0), mat
            else:
                assert not _negative_definite(mat), mat
        assert min(verdicts.values()) > 50

    def test_indefinite_direction_detected(self):
        f = GaussianPolyFunction.pure_gaussian(
            ((ComplexRational(-1), ComplexRational(2)),
             (ComplexRational(2), ComplexRational(-1))))
        assert not is_square_integrable(f)


class TestInnerProduct:
    def test_plain_gaussian(self):
        g = gauss_1d(-HALF)
        assert abs(inner_product(g, g) - math.sqrt(math.pi)) < 1e-12

    def test_second_moment(self):
        f = gauss_1d(-HALF, poly={(1,): ONE})
        assert abs(inner_product(f, f) - math.sqrt(math.pi) / 2) < 1e-12

    def test_fourth_moment(self):
        f = gauss_1d(-HALF, poly={(2,): ONE})
        assert abs(inner_product(f, f) - 0.75 * math.sqrt(math.pi)) < 1e-12

    def test_odd_moment_vanishes(self):
        g = gauss_1d(-HALF)
        f = gauss_1d(-HALF, poly={(1,): ONE})
        assert abs(inner_product(g, f)) < 1e-15

    def test_linear_shift(self):
        s = gauss_1d(-HALF, lin=HALF)
        expected = math.sqrt(math.pi) * math.exp(0.25)
        assert abs(inner_product(s, s) - expected) < 1e-12

    def test_complex_quadratic_part(self):
        g = gauss_1d(-HALF)
        c = gauss_1d(ComplexRational(-HALF, -HALF))
        expected = cmath.sqrt(2 * cmath.pi / (2 + 1j))
        assert abs(inner_product(g, c) - expected) < 1e-12

    def test_two_mode_isotropic(self):
        f = GaussianPolyFunction.pure_gaussian(
            ((ComplexRational(-HALF), ComplexRational(0)),
             (ComplexRational(0), ComplexRational(-HALF))))
        assert abs(inner_product(f, f) - math.pi) < 1e-12

    def test_two_mode_correlated(self):
        quarter = ComplexRational(Fraction(1, 4))
        f = GaussianPolyFunction.pure_gaussian(
            ((ComplexRational(-1), quarter), (quarter, ComplexRational(-1))))
        expected = 2 * math.pi / math.sqrt(15)
        assert abs(inner_product(f, f) - expected) < 1e-12

    def test_divergent_sentinel(self):
        _, _, psi0, _ = bateman_setup(Fraction(1))
        assert inner_product(psi0, psi0) is DIVERGENT

    def test_sum_is_bilinear(self):
        g = gauss_1d(-HALF)
        h = gauss_1d(-1)
        total = inner_product(g + h, g + h)
        parts = (inner_product(g, g) + inner_product(g, h)
                 + inner_product(h, g) + inner_product(h, h))
        assert abs(total - parts) < 1e-12


class TestHermiticityWitness:
    def test_vanishes_for_integrable_pair(self):
        ham, _, _, _ = bateman_setup(Fraction(1))
        quad = ((ComplexRational(-HALF), ComplexRational(0)),
                (ComplexRational(0), ComplexRational(-HALF)))
        f = GaussianPolyFunction.pure_gaussian(quad)
        g = GaussianPolyFunction(
            num_modes=2, poly={(1, 0): ONE, (0, 1): ComplexRational(0, 1)},
            quad=quad, lin=(ComplexRational(0), ComplexRational(0)))
        assert hermiticity_witness(ham, f, g) < 1e-12

    def test_names_the_offender(self):
        ham, _, psi0, _ = bateman_setup(Fraction(1))
        good = GaussianPolyFunction.pure_gaussian(
            ((ComplexRational(-HALF), ComplexRational(0)),
             (ComplexRational(0), ComplexRational(-HALF))))
        with pytest.raises(DivergentInputError, match="f is not"):
            hermiticity_witness(ham, psi0, good)
        with pytest.raises(DivergentInputError, match="g is not"):
            hermiticity_witness(ham, good, psi0)


class TestSums:
    def test_sector_merge_and_cancel(self):
        g = gauss_1d(-HALF)
        h = gauss_1d(-1)
        s = g + h
        assert isinstance(s, GaussianPolySum)
        assert len(s.components) == 2
        assert (s - g - h).is_zero

    def test_apply_distributes(self):
        g = gauss_1d(-HALF)
        h = gauss_1d(-1)
        x = WeylPolynomial.position(1, 1)
        got = apply_operator(x, g + h)
        assert isinstance(got, GaussianPolySum)
        for comp in got.components:
            assert comp.poly == {(1,): ONE}


class TestSerialization:
    def test_function_schema(self):
        _, _, psi0, _ = bateman_setup(Fraction(1))
        doc = function_to_json(psi0)
        assert doc["num_modes"] == 2
        assert doc["poly"] == [{"exps": [0, 0], "coeff": [1, 1, 0, 1]}]
        assert doc["quad"][0][0] == [-1, 2, 0, 1]
        assert doc["quad"][1][1] == [1, 2, 0, 1]
        assert doc["text"] == "(1) * exp(-(1/2)*x^2 + (1/2)*y^2)"

    def test_text_is_rendered_once(self, monkeypatch):
        # a fresh function renders on first read; the shared vacua have, so
        # a second report renders neither
        f = GaussianPolyFunction.pure_gaussian(vacuum_functions()[0].quad)
        cli.run_report(b=Fraction(1, 2), ladder_states=1)
        calls = []
        cp_text = wavefn._cp_text
        monkeypatch.setattr(wavefn, "_cp_text",
                            lambda p, k: calls.append(p) or cp_text(p, k))
        assert str(f) == "(1) * exp(-(1/2)*x^2 + (1/2)*y^2)"
        assert function_to_json(f)["text"] is str(f)
        assert len(calls) == 2
        calls.clear()
        report = cli.run_report(b=Fraction(3, 7), ladder_states=1)
        assert calls == []
        assert [fam["vacuum"]["text"] for fam in report["families"]] == [
            "(1) * exp(-(1/2)*x^2 + (1/2)*y^2)", "(1) * exp((1/2)*x^2 - (1/2)*y^2)"]

    def test_spectrum_json(self):
        ham, ladders, psi0, _ = bateman_setup(Fraction(1))
        entries = ladder_spectrum(
            ham, psi0, ladders[2], ladders[3], 1, 1, family="vacuum0")
        doc = spectrum_to_json(entries)
        assert doc["family"] == "vacuum0"
        assert len(doc["states"]) == 4
        first = doc["states"][0]
        assert first == {"n": 0, "m": 0, "energy": [1.0, 0.0],
                         "energy_exact": [1, 1, 0, 1], "annihilated": False,
                         "square_integrable": False}

    def test_integrability_decided_once_per_exponent(self, monkeypatch):
        # a fresh vacuum: the shared pair may have decided already
        ham, ladders, _, _ = bateman_setup(Fraction(1))
        psi0 = GaussianPolyFunction.pure_gaussian(vacuum_functions()[0].quad)
        entries = ladder_spectrum(
            ham, psi0, ladders[2], ladders[3], 2, 2, family="vacuum0")
        calls = []

        def counting(mat):
            calls.append(mat)
            return negative_definite(mat)

        def real_part(f):  # quad + conj(quad), the matrix that decides
            return [[2 * v.re for v in row] for row in f.quad]

        negative_definite = wavefn._negative_definite
        monkeypatch.setattr(wavefn, "_negative_definite", counting)
        expected = spectrum_to_json(entries)
        assert spectrum_to_json(entries) == expected
        assert is_square_integrable(psi0) is False
        assert calls == [real_part(psi0)]
        assert [s["square_integrable"] for s in expected["states"]] == [False] * 9

        # an entry decides from its vacuum, and one without a state (a
        # lowering ladder passed as a raiser) is annihilated
        other = dataclasses.replace(entries[1], vacuum=gauss_1d(-1))
        gone = ladder_spectrum(ham, psi0, ladders[0], ladders[1], 0, 1)[1]
        assert gone.state is None
        assert gone.annihilated and gone.function is None
        calls.clear()
        doc = spectrum_to_json([entries[0], other, gone, entries[3]])
        assert calls == [real_part(other.vacuum)]
        assert [s["square_integrable"] for s in doc["states"]] == [
            False, True, None, False]

    def test_reports_decide_the_shared_vacua_once(self, monkeypatch):
        first = cli.run_report(b=Fraction(1, 2), ladder_states=2)
        calls = []
        monkeypatch.setattr(wavefn, "_negative_definite",
                            lambda mat: calls.append(mat))
        second = cli.run_report(b=Fraction(3, 7), ladder_states=2)
        assert calls == []
        for report in (first, second):
            assert {s["square_integrable"] for family in report["families"]
                    for s in family["states"]} == {False}


# ---------------------------------------------------------------------------
# oracle: the Gaussian integral by eliminating one variable at a time, as
# wavefn computed it before the moment recurrence (kept verbatim)
# ---------------------------------------------------------------------------

def _old_double_factorial_odd(j: int) -> int:
    """(j-1)!! for even j >= 0."""
    out = 1
    for t in range(j - 1, 0, -2):
        out *= t
    return out


def _old_gaussian_integral(poly, quad, lin):
    """Exact-symbolic integral of poly * exp(x^T quad x + lin^T x) over R^K.

    Requires Re(quad) negative definite (callers check).  Variables are
    eliminated last to first; all polynomial and exponent bookkeeping stays
    rational, and each elimination contributes sqrt(pi / -a) with Re(a) < 0,
    so every square root takes the principal branch on the right half plane.
    """
    n = len(lin)
    a_mat = [list(row) for row in quad]
    b_vec = list(lin)
    g = dict(poly)
    const_exp = ZERO
    factor = 1.0 + 0j
    for n_vars in range(n, 0, -1):
        if not g:
            return 0j
        k = n_vars - 1
        a = a_mat[k][k]
        if not (a.re < 0):
            raise NumericFailureError(
                "elimination pivot has nonnegative real part; "
                "exponent is not negative definite")
        sigma2 = ComplexRational(-1) / (2 * a)     # variance of the 1-d factor
        l_poly = {}                                 # L with x_k coefficient split off
        for j in range(k):
            coeff = 2 * a_mat[j][k]
            if coeff:
                exps = [0] * k
                exps[j] = 1
                _add_term(l_poly, tuple(exps), coeff)
        if b_vec[k]:
            _add_term(l_poly, (0,) * k, b_vec[k])

        # integrate x_k: x_k^mm pairs with moments of the shifted Gaussian
        new_g = {}
        groups = {}
        for exps, coeff in g.items():
            groups.setdefault(exps[-1], {})[exps[:-1]] = coeff
        l_powers = {0: {(0,) * k: ONE}}
        max_m = max(groups)
        for t in range(1, max_m + 1):
            l_powers[t] = _cp_mul(l_powers[t - 1], l_poly)
        for mm, rest_poly in groups.items():
            shifted_sum = {}
            for j in range(0, mm + 1, 2):
                weight = (math.comb(mm, j) * _old_double_factorial_odd(j)) * (
                    sigma2 ** (j // 2 + mm - j))
                for exps, coeff in l_powers[mm - j].items():
                    _add_term(shifted_sum, exps, coeff * weight)
            for e1, c1 in rest_poly.items():
                for e2, c2 in shifted_sum.items():
                    _add_term(new_g, tuple(x + y for x, y in zip(e1, e2)),
                              c1 * c2)
        g = new_g

        # push exp(-L^2/(4a)) = exp((sigma2/2) L^2) into the remaining exponent
        half_sigma2 = sigma2 / 2
        l_sq = _cp_mul(l_poly, l_poly)
        for exps, coeff in l_sq.items():
            deg = sum(exps)
            contrib = coeff * half_sigma2
            if deg == 0:
                const_exp = const_exp + contrib
            elif deg == 1:
                b_vec[exps.index(1)] = b_vec[exps.index(1)] + contrib
            else:
                i1 = next(t for t, e in enumerate(exps) if e)
                if exps[i1] == 2:
                    a_mat[i1][i1] = a_mat[i1][i1] + contrib
                else:
                    i2 = next(t for t in range(i1 + 1, k) if exps[t])
                    half = contrib / 2
                    a_mat[i1][i2] = a_mat[i1][i2] + half
                    a_mat[i2][i1] = a_mat[i2][i1] + half
        a_mat = [row[:k] for row in a_mat[:k]]
        b_vec = b_vec[:k]
        factor *= cmath.sqrt(cmath.pi / complex(-a))
    constant = g.get((), ZERO)
    return complex(constant) * cmath.exp(complex(const_exp)) * factor


_RAT = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def integrands(draw):
    """poly, quad, lin with K <= 4, Re(quad) = -(B B^T + eps I) < 0."""
    k = draw(st.integers(1, 4))
    b = [[draw(_RAT) for _ in range(k)] for _ in range(k)]
    eps = draw(st.sampled_from([Fraction(1), HALF, Fraction(1, 4)]))
    im = [[draw(_RAT) for _ in range(k)] for _ in range(k)]
    quad = tuple(tuple(ComplexRational(
        -sum(b[i][t] * b[j][t] for t in range(k)) - (eps if i == j else 0),
        (im[i][j] + im[j][i]) / 2) for j in range(k)) for i in range(k))
    value = st.builds(ComplexRational, _RAT, _RAT)
    lin = tuple(draw(st.one_of(st.just(ZERO), value)) for _ in range(k))
    poly = {}
    exps = st.tuples(*[st.integers(0, 5)] * k)
    for e, c in draw(st.lists(st.tuples(exps, value), max_size=5)):
        _add_term(poly, e, c)
    return poly, quad, lin


class TestGaussianIntegral:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(integrand=integrands())
    def test_bit_identical_to_the_elimination_oracle(self, integrand):
        assert _gaussian_integral(*integrand) == _old_gaussian_integral(*integrand)

    def test_high_degree_moment_has_the_closed_form(self):
        value = _gaussian_integral(
            {(200,): ONE}, ((ComplexRational(-HALF),),), (ZERO,))
        expected = math.prod(range(1, 200, 2)) * math.sqrt(2 * math.pi)
        assert abs(value - expected) <= 1e-12 * expected

    def test_zero_polynomial_is_zero(self):
        assert _gaussian_integral({}, ((ComplexRational(1),),), (ZERO,)) == 0j

    def test_inner_product_runs_the_shared_elimination(self, monkeypatch):
        # the integral inverts its exponent by the package's one Gauss-Jordan
        calls, eliminate = [], wavefn._gauss_jordan
        monkeypatch.setattr(wavefn, "_gauss_jordan",
                            lambda m, rank=None: calls.append(len(m)) or eliminate(m, rank))
        psi0 = GaussianPolyFunction.pure_gaussian(((ComplexRational(-HALF),),))
        assert abs(inner_product(psi0, psi0) - math.sqrt(math.pi)) <= 1e-12
        assert calls == [1]

    def test_pivot_with_nonnegative_real_part_fails(self):
        quad = ((ComplexRational(-1), ONE), (ONE, ComplexRational(-1)))
        with pytest.raises(NumericFailureError, match="pivot"):
            _gaussian_integral({(0, 0): ONE}, quad, (ZERO, ZERO))

    def test_oscillator_states_of_different_energies_are_orthogonal(self):
        ham = validate_quadratic(parse_to_polynomial(
            "1/2*p1^2 + 1/2*p2^2 + 5/4*x1^2 + 5/4*x2^2 + 3/2*x1*x2"))
        ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        raise_1, raise_2 = sorted(
            (lad for lad in ladders if lad.lam.real > 0),
            key=lambda lad: lad.lam.real)
        assert (raise_1.lam, raise_2.lam) == (1, 2)
        diag, off = ComplexRational(Fraction(-3, 4)), ComplexRational(Fraction(-1, 4))
        vacuum = GaussianPolyFunction.pure_gaussian(((diag, off), (off, diag)))
        entries = ladder_spectrum(ham, vacuum, raise_1, raise_2, 3, 3)
        assert entries[0].energy == Fraction(3, 2)
        assert all(entry.function is not None for entry in entries)
        for a in entries:
            for b in entries:
                value = inner_product(a.function, b.function)
                if a.energy != b.energy:
                    assert value == 0
                elif a is b:
                    assert value.imag == 0 and value.real > 0
