"""Ladder operators: construction, verification, pairing, the table."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian_quadratic, ratio
from quadladder import adjoint
from test_acceptance import B_VALUES
from test_golden import MODELS
from quadladder.adjoint import (
    QuadraticHamiltonian,
    adjoint_matrix,
    eigen_residual,
    validate_quadratic,
)
from quadladder.bateman import build_hd
from quadladder.dsl import parse_to_polynomial
from quadladder.errors import DefectiveSpectrumError, VerificationError
from quadladder.ladders import (
    LADDER_RESIDUAL_TOL,
    _float_ladder_text,
    build_ladders,
    commutator_table,
    ladders_to_json,
)
from quadladder.spectral import eigen_decompose
from quadladder.weyl import ComplexRational, WeylPolynomial, commutator, dagger

I = ComplexRational(0, 1)
ZERO = ComplexRational(0)


def bateman_ladders(b):
    ham = build_hd(b)
    return ham, build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))


EXPECTED_TEXT = [
    "x - y + i*px + i*py",
    "x + y + i*px - i*py",
    "x - y - i*px - i*py",
    "x + y - i*px + i*py",
]


class TestBatemanLadders:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_canonical_quadruple(self, b):
        ham, ladders = bateman_ladders(b)
        half = b / 2
        assert [str(lad.z) for lad in ladders] == EXPECTED_TEXT
        assert [lad.lam_exact for lad in ladders] == [
            ComplexRational(-1, -half),
            ComplexRational(-1, half),
            ComplexRational(1, -half),
            ComplexRational(1, half),
        ]

    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_commutation_identity_exact(self, b):
        ham, ladders = bateman_ladders(b)
        for lad in ladders:
            assert commutator(ham.op, lad.z) == lad.lam_exact * lad.z

    def test_sorted_by_frequency(self):
        _, ladders = bateman_ladders(Fraction(1))
        keys = [(lad.lam.real, lad.lam.imag) for lad in ladders]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_commutator_table_golden(self, b):
        _, ladders = bateman_ladders(b)
        table = commutator_table(ladders)
        values = [[int(complex(table[i, j]).real) for j in range(4)] for i in range(4)]
        assert values == [
            [0, 0, 0, 4],
            [0, 0, 4, 0],
            [0, -4, 0, 0],
            [-4, 0, 0, 0],
        ]
        for i in range(4):
            for j in range(4):
                assert table[i, j].is_real

    def test_dagger_swaps_partners(self):
        _, ladders = bateman_ladders(Fraction(1))
        z1, z2, z3, z4 = (lad.z for lad in ladders)
        assert dagger(z1) == z3
        assert dagger(z2) == z4
        assert dagger(z3) == z1
        assert dagger(z4) == z2

    def test_shift_check_returns_frequency(self):
        # the Weyl product, independent of the adjoint matrix, gives lambda
        ham, ladders = bateman_ladders(Fraction(2))
        for lad in ladders:
            assert ratio(commutator(ham.op, lad.z).terms, lad.z.terms) == lad.lam_exact

    def test_matrix_is_built_once_per_hamiltonian(self, monkeypatch):
        ham = build_hd(Fraction(3, 7))
        matrix = adjoint_matrix(ham)
        assert adjoint_matrix(ham) is matrix
        built = []

        def counting(rows):
            built.append(rows)
            return complex_matrix(rows)

        complex_matrix = adjoint.ComplexMatrix
        monkeypatch.setattr(adjoint, "ComplexMatrix", counting)
        ladders = build_ladders(ham, eigen_decompose(matrix))
        assert built == []
        assert [lad.lam_exact for lad in ladders] == [
            lad.lam_exact for lad in bateman_ladders(Fraction(3, 7))[1]]
        assert len(built) == 1      # the fresh Hamiltonian built its own


class TestDegenerateAndDefective:
    def test_undamped_pairs(self):
        ham, ladders = bateman_ladders(Fraction(0))
        assert [str(lad.z) for lad in ladders] == [
            "x + i*px",
            "y - i*py",
            "x - i*px",
            "y + i*py",
        ]
        assert [lad.lam_exact for lad in ladders] == [
            ComplexRational(-1), ComplexRational(-1),
            ComplexRational(1), ComplexRational(1),
        ]
        for lad in ladders:
            assert commutator(ham.op, lad.z) == lad.lam_exact * lad.z

    def test_free_particle_raises(self):
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(Fraction(1, 2) * (p * p))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        with pytest.raises(DefectiveSpectrumError):
            build_ladders(ham, spectrum)

    def test_single_mode_oscillator(self):
        x = WeylPolynomial.position(1, 1)
        p = WeylPolynomial.momentum(1, 1)
        ham = validate_quadratic(Fraction(1, 2) * (p * p + x * x))
        ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        assert [str(lad.z) for lad in ladders] == ["x1 + i*p1", "x1 - i*p1"]
        table = commutator_table(ladders)
        assert table[0, 1] == ComplexRational(2)
        assert table[1, 0] == ComplexRational(-2)


class TestRandomHamiltonians:
    def test_identity_and_antisymmetry(self, rng):
        checked = 0
        while checked < 25:
            ham = validate_quadratic(
                random_hermitian_quadratic(rng, rng.choice((1, 2))))
            spectrum = eigen_decompose(adjoint_matrix(ham))
            if spectrum.defective:
                continue
            checked += 1
            ladders = build_ladders(ham, spectrum)
            assert len(ladders) == 2 * ham.num_modes
            table = commutator_table(ladders)
            n = table.size
            for i in range(n):
                for j in range(n):
                    assert table[i, j] == -1 * table[j, i]
            for lad in ladders:
                if lad.lam_exact is not None:
                    assert commutator(ham.op, lad.z) == lad.lam_exact * lad.z
                else:
                    residual = commutator(ham.op, lad.z) - \
                        ComplexRational.from_complex(lad.lam) * lad.z
                    coeffs = ([residual.constant_term()]
                              + residual.linear_coefficients())
                    assert max(abs(complex(c)) for c in coeffs) < 1e-8


def assert_dagger_is_partner_ladder(ham, lad):
    """[H, dagger(Z)] = -conj(lambda) dagger(Z) by the Weyl product: exactly
    for an exact ladder, else to LADDER_RESIDUAL_TOL relative to
    max(1, ||M||_inf) * max|c|, the bound of the ladder's own check."""
    zd = dagger(lad.z)
    if lad.lam_exact is not None:
        assert commutator(ham.op, zd) == -lad.lam_exact.conjugate() * zd
        return
    residual = (commutator(ham.op, zd)
                - ComplexRational.from_complex(-lad.lam.conjugate()) * zd)
    worst = max((abs(complex(c)) for c in residual.terms.values()), default=0.0)
    scale = (max(1.0, adjoint_matrix(ham).norm_inf())
             * max(abs(complex(c)) for c in lad.coefficients))
    assert worst < LADDER_RESIDUAL_TOL * scale


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 3))
def test_closed_forms_match_weyl_products(seed, num_modes):
    """The symplectic-form table, M = -conj(M), [H, Z] = lambda Z and the
    dagger pairing agree with the general Weyl product on random Hermitian
    quadratics."""
    ham = validate_quadratic(
        random_hermitian_quadratic(random.Random(seed), num_modes))
    matrix = adjoint_matrix(ham)
    assert all(v == -v.conjugate() for row in matrix.exact for v in row)
    spectrum = eigen_decompose(matrix)
    assume(not spectrum.defective)
    ladders = build_ladders(ham, spectrum)
    table = commutator_table(ladders)
    for i, a in enumerate(ladders):
        for j, b in enumerate(ladders):
            assert table[i, j] == commutator(a.z, b.z).as_scalar()
        if a.lam_exact is not None:
            assert commutator(ham.op, a.z) == a.lam_exact * a.z
        assert_dagger_is_partner_ladder(ham, a)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 4))
def test_str_is_the_report_text(seed, num_modes):
    """str(lad) is the report's text; an exact ladder's text is str(lad.z),
    and an irrational one's shows no binary fraction."""
    ham = validate_quadratic(
        random_hermitian_quadratic(random.Random(seed), num_modes))
    spectrum = eigen_decompose(adjoint_matrix(ham))
    assume(not spectrum.defective)
    ladders = build_ladders(ham, spectrum)
    for lad, doc in zip(ladders, ladders_to_json(ladders, None)["ladders"]):
        assert str(lad) == doc["text"]
        if lad.lam_exact is not None:
            assert doc["text"] == str(lad.z)
        else:
            assert "/" not in doc["text"]


def symplectic_table(ladders):
    """Every entry from the symplectic form over Q(i), i sum_m (a_xm b_pm -
    a_pm b_xm) (commutator_table before the lambda_a + lambda_b identity)."""
    vecs = [lad.coefficients for lad in ladders]
    k = len(vecs[0]) // 2 if vecs else 0
    return tuple(
        tuple(I * sum((a[m] * b[k + m] - a[k + m] * b[m] for m in range(k)), ZERO)
              for b in vecs)
        for a in vecs)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 4))
def test_table_matches_the_symplectic_oracle(seed, num_modes):
    """Exact and float ladders alike: the identity zeroes only entries the
    form makes exactly zero."""
    ham = validate_quadratic(
        random_hermitian_quadratic(random.Random(seed), num_modes))
    spectrum = eigen_decompose(adjoint_matrix(ham))
    assume(not spectrum.defective)
    ladders = build_ladders(ham, spectrum)
    assert commutator_table(ladders).entries == symplectic_table(ladders)


def golden_hamiltonian(argv):
    if argv[0] == "--bateman":
        return build_hd(Fraction(argv[1].removeprefix("b=")))
    return validate_quadratic(parse_to_polynomial(argv[1]))


TABLE_MODELS = {
    **{f"bateman-{b}": build_hd(b) for b in B_VALUES},  # b = 0: criterion 09
    "equal_oscillators": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1/2*x2^2")),
    "three_modes_two_equal": validate_quadratic(parse_to_polynomial(
        "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1/2*x2^2 + 1/2*p3^2 + 2*x3^2 + 1/3*x1*x3")),
}


@pytest.mark.parametrize("name", [*TABLE_MODELS, *(n for n in MODELS if "defective" not in n)])
def test_named_tables_match_the_symplectic_oracle(name):
    ham = TABLE_MODELS[name] if name in TABLE_MODELS else golden_hamiltonian(MODELS[name])
    ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
    assert commutator_table(ladders).entries == symplectic_table(ladders)


class TestDaggerPairing:
    """dagger(Z) is a ladder at -conj(lambda) because conj(M) = -M; no
    runtime pass checks it, so these tests (and
    test_closed_forms_match_weyl_products) pin the identity."""

    @pytest.mark.parametrize("name", [n for n in MODELS if "defective" not in n])
    def test_golden_ladders(self, name):
        ham = golden_hamiltonian(MODELS[name])
        ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        for lad in ladders:
            assert_dagger_is_partner_ladder(ham, lad)

    def test_anti_hermitian_operator_is_refused(self):
        # M is real here, so conj(M) = M: lambda = +-1 have partners, but
        # dagger(Z) is no ladder.
        op = parse_to_polynomial("1/2*i*x1^2 - 1/2*i*p1^2")
        ham = QuadraticHamiltonian(op=op, num_modes=1, energy_offset=op.constant_term())
        spectrum = eigen_decompose(adjoint_matrix(ham))
        assert [f.lam for f in spectrum.frequencies] == [-1, 1]
        with pytest.raises(VerificationError, match="dagger"):
            build_ladders(ham, spectrum)


class TestVerificationFailures:
    """Eigen-data that breaks an identity makes build_ladders refuse."""

    @staticmethod
    def spectrum_with(spectrum, index, **changes):
        freqs = list(spectrum.frequencies)
        freqs[index] = dataclasses.replace(freqs[index], **changes)
        return dataclasses.replace(spectrum, frequencies=tuple(freqs))

    def test_altered_exact_eigenvector(self):
        ham = build_hd(Fraction(1, 2))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        vec = list(spectrum.frequencies[0].eigenvectors_exact[0])
        vec[1] = vec[1] + ComplexRational(0, Fraction(1, 3))
        bad = self.spectrum_with(spectrum, 0, eigenvectors_exact=(tuple(vec),))
        with pytest.raises(VerificationError, match="exact ladder"):
            build_ladders(ham, bad)

    @pytest.mark.parametrize("other", [1, 2, 3])
    def test_eigenvector_at_another_exact_lambda(self, other):
        # each vector is exact, but belongs to another frequency: the integer
        # check refuses it with the residual the Q(i) check printed
        ham = build_hd(Fraction(1, 2))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        lam = spectrum.frequencies[other].lam_exact
        bad = self.spectrum_with(spectrum, 0, lam_exact=lam)
        vec = spectrum.frequencies[0].eigenvectors_exact[0]
        coeffs = [c / next(c for c in vec if c) for c in vec]
        residual = eigen_residual(adjoint_matrix(ham).exact, lam, coeffs)
        with pytest.raises(VerificationError) as info:
            build_ladders(ham, bad)
        assert str(info.value) == (
            f"exact ladder at lambda={lam} fails its commutation relation; "
            f"residual {WeylPolynomial.from_linear(residual, 2)}")

    def test_purely_imaginary_residual(self):
        # H = (x p + p x)/2 has real eigenvectors x1 at -i and p1 at i; x1
        # claimed at i leaves the residual (-i - i) x1, with no real part
        ham = validate_quadratic(parse_to_polynomial("1/2*x1*p1 + 1/2*p1*x1"))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        bad = self.spectrum_with(spectrum, 0, lam_exact=spectrum.frequencies[1].lam_exact)
        with pytest.raises(VerificationError, match=r"lambda=i fails .* residual -2\*i\*x1"):
            build_ladders(ham, bad)

    def test_perturbed_float_eigenvector(self):
        ham = build_hd(Fraction(1, 2))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        vec = list(spectrum.frequencies[0].eigenvectors[0])
        vec[2] += 1e-6
        bad = self.spectrum_with(spectrum, 0, lam_exact=None,
                                 eigenvectors=(tuple(vec),),
                                 eigenvectors_exact=(None,))
        with pytest.raises(VerificationError,
                           match="fails its commutation relation") as info:
            build_ladders(ham, bad)
        assert 1e-7 < info.value.residuals[0] < 1e-5

    def test_missing_partner_frequency(self):
        ham = build_hd(Fraction(1, 2))
        spectrum = eigen_decompose(adjoint_matrix(ham))
        lams = [f.lam_exact for f in spectrum.frequencies]
        partner = lams.index(-lams[0].conjugate())
        bad = dataclasses.replace(spectrum, frequencies=tuple(
            f for i, f in enumerate(spectrum.frequencies) if i != partner))
        with pytest.raises(VerificationError, match="no partner"):
            build_ladders(ham, bad)


class TestFloatLadders:
    # Irrational frequencies; at Z1 the complex division lead / lead leaves an
    # imaginary part of order 1e-17 unless the lead is set to 1 explicitly.
    EXPR = "1/2*p1^2 + 1/2*p2^2 + 2/3*x1^2 - x1*x2 + 5/6*x2^2 - x1*p2 + x2*p1"

    def test_lead_coefficient_is_exactly_one(self):
        ham = validate_quadratic(parse_to_polynomial(self.EXPR))
        ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        assert all(lad.lam_exact is None for lad in ladders)
        for lad in ladders:
            coeffs = lad.z.linear_coefficients()
            assert next(c for c in coeffs if abs(c) > 1e-10) == ComplexRational(1)

    def test_text_has_no_binary_fractions(self):
        ham = validate_quadratic(parse_to_polynomial(self.EXPR))
        for lad in build_ladders(ham, eigen_decompose(adjoint_matrix(ham))):
            assert "/" in str(lad.z)
            assert "/" not in str(lad)

    def test_text_follows_the_exact_text_rules(self):
        # a coefficient that reads 1 in 10 digits writes no 1*, a negative
        # one-part coefficient writes its own minus, and a mixed one stays
        # parenthesized after +
        ham = validate_quadratic(parse_to_polynomial("1/2*p1^2 + x1^2"))
        ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        assert [lad.text for lad in ladders] == ["x1 + 0.7071067812i*p1",
                                                 "x1 - 0.7071067812i*p1"]
        assert _float_ladder_text([-1, -2.5, 1j, -1j, 0.5 - 0.25j, 0], 3) \
            == "-x1 - 2.5*x2 + i*x3 - i*p1 + (0.5-0.25i)*p2"
        assert _float_ladder_text([1 + 2 ** -52, -(1 - 2 ** -53) * 1j, 10, 0.1j], 2) \
            == "x - i*y + 10*px + 0.1i*py"
        assert _float_ladder_text([0, 0], 1) == "0"

    def test_weyl_product_confirms_float_ladders(self):
        # [H, Z] - lambda Z by the Weyl product, coefficient by coefficient
        ham = validate_quadratic(parse_to_polynomial(self.EXPR))
        for lad in build_ladders(ham, eigen_decompose(adjoint_matrix(ham))):
            z, comm = lad.z, commutator(ham.op, lad.z)
            assert set(comm.terms) == set(z.terms)
            assert all(abs(complex(comm.terms[mono]) - lad.lam * complex(c)) < 1e-9
                       for mono, c in z.terms.items())


class TestSerialization:
    def test_schema(self):
        ham, ladders = bateman_ladders(Fraction(1))
        doc = ladders_to_json(ladders, commutator_table(ladders))
        assert [lad["text"] for lad in doc["ladders"]] == EXPECTED_TEXT
        first = doc["ladders"][0]
        assert first["lambda"] == [-1.0, -0.5]
        assert first["lambda_exact"] == [-1, 1, -1, 2]
        assert first["coefficients_exact"] == [
            [1, 1, 0, 1], [-1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
        assert doc["commutator_table"][0][3] == [4, 1, 0, 1]

    def test_table_optional(self):
        # the table is always written: null without one, or once a lambda
        # is inexact
        _, ladders = bateman_ladders(Fraction(1))
        assert ladders_to_json(ladders, None)["commutator_table"] is None
        ham = validate_quadratic(parse_to_polynomial(TestFloatLadders.EXPR))
        floats = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
        doc = ladders_to_json(floats, commutator_table(floats))
        assert list(doc) == ["ladders", "commutator_table"]
        assert doc["commutator_table"] is None
