"""Acceptance gate: every headline capability, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion asserts, so a FAIL line is always accompanied by a
failing test.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import SEED, random_hermitian_quadratic
from quadladder.adjoint import adjoint_matrix, matrices_commute, validate_quadratic
from quadladder.bateman import build_hd, split_h0_h1, vacuum_functions
from quadladder.dsl import lower, parse_hamiltonian, parse_to_polynomial, render
from quadladder.errors import DefectiveSpectrumError
from quadladder.ladders import build_ladders, commutator_table
from quadladder.spectral import eigen_decompose
from quadladder.wavefn import (
    GaussianPolyFunction,
    annihilation_check,
    apply_operator,
    eigencheck,
    hermiticity_witness,
    inner_product,
    is_square_integrable,
    ladder_spectrum,
)
from quadladder.weyl import (
    ComplexRational,
    WeylPolynomial,
    commutator,
)

B_VALUES = (Fraction(1, 2), Fraction(1), Fraction(2))

LADDER_TEXT = [
    "x - y + i*px + i*py",
    "x + y + i*px - i*py",
    "x - y - i*px - i*py",
    "x + y - i*px + i*py",
]


def gate(num, label, ok):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num:02d}: {label}"


@lru_cache(maxsize=None)
def setup(b):
    ham = build_hd(b)
    matrix = adjoint_matrix(ham)
    spectrum = eigen_decompose(matrix)
    ladders = build_ladders(ham, spectrum)
    return ham, matrix, spectrum, ladders


@lru_cache(maxsize=None)
def family_entries(b, n_max):
    ham, _, _, ladders = setup(b)
    psi0, psi1 = vacuum_functions()
    fam0 = ladder_spectrum(ham, psi0, ladders[2], ladders[3], n_max, n_max,
                           family="vacuum0")
    fam1 = ladder_spectrum(ham, psi1, ladders[0], ladders[1], n_max, n_max,
                           family="vacuum1")
    return fam0, fam1


def test_criterion_01_adjoint_matrix():
    ok = True
    for b in B_VALUES:
        _, matrix, _, _ = setup(b)
        expected = tuple(
            tuple(ComplexRational(0, Fraction(v, 2)) for v in row)
            for row in (
                [0, b, 2, 0], [b, 0, 0, -2], [-2, 0, 0, -b], [0, 2, -b, 0])
        )
        ok = ok and matrix.exact == expected
    gate(1, "adjoint matrix of the damped pair model, exact at three b", ok)


def test_criterion_02_natural_frequencies():
    ok = True
    for b in B_VALUES:
        _, _, spectrum, _ = setup(b)
        half = b / 2
        expected = [
            ComplexRational(-1, -half), ComplexRational(-1, half),
            ComplexRational(1, -half), ComplexRational(1, half),
        ]
        ok = ok and [f.lam_exact for f in spectrum.frequencies] == expected
        ok = ok and all(f.algebraic_multiplicity == 1 for f in spectrum.frequencies)
    gate(2, "natural frequencies +-1 +- i*b/2, exact", ok)


def test_criterion_03_ladder_operators():
    ok = True
    for b in B_VALUES:
        ham, _, _, ladders = setup(b)
        ok = ok and [str(lad.z) for lad in ladders] == LADDER_TEXT
        for lad in ladders:
            ok = ok and commutator(ham.op, lad.z) == lad.lam_exact * lad.z
    gate(3, "canonical ladder quadruple with exact shift relations", ok)


def test_criterion_04_commutator_table():
    expected = [
        [0, 0, 0, 4], [0, 0, 4, 0], [0, -4, 0, 0], [-4, 0, 0, 0]]
    ok = True
    for b in B_VALUES:
        _, _, _, ladders = setup(b)
        table = commutator_table(ladders)
        got = [[table[i, j] for j in range(4)] for i in range(4)]
        ok = ok and got == [[ComplexRational(v) for v in row] for row in expected]
    gate(4, "ladder commutator table [[0,0,0,4],[0,0,4,0],...]", ok)


def test_criterion_05_vacuum_identities():
    ok = True
    two = ComplexRational(2)
    four = ComplexRational(4)
    for b in B_VALUES:
        ham, _, _, ladders = setup(b)
        z1, z2, z3, z4 = ladders
        psi0, psi1 = vacuum_functions()
        ok = ok and eigencheck(ham, psi0) == ComplexRational(1)
        ok = ok and eigencheck(ham, psi1) == ComplexRational(-1)
        ok = ok and annihilation_check(z1, psi0) and annihilation_check(z2, psi0)
        ok = ok and annihilation_check(z3, psi1) and annihilation_check(z4, psi1)
        up3 = apply_operator(z3, psi0)
        up4 = apply_operator(z4, psi0)
        ok = ok and up3.poly == {(1, 0): two, (0, 1): -1 * two} \
            and up3.quad == psi0.quad
        ok = ok and up4.poly == {(1, 0): two, (0, 1): two}
        both = apply_operator(z3, apply_operator(z4, psi0))
        swap = apply_operator(z4, apply_operator(z3, psi0))
        expected = {(2, 0): four, (0, 2): -1 * four, (0, 0): -1 * four}
        ok = ok and both.poly == expected and swap.poly == expected
        dn1 = apply_operator(z1, psi1)
        dn2 = apply_operator(z2, psi1)
        ok = ok and dn1.poly == {(1, 0): two, (0, 1): -1 * two}
        ok = ok and dn2.poly == {(1, 0): two, (0, 1): two}
    gate(5, "vacuum energies, annihilations, and first raised states", ok)


def test_criterion_06_ladder_spectra():
    ok = True
    for b in B_VALUES:
        fam0, fam1 = family_entries(b, 5)
        ok = ok and len(fam0) == 36 and len(fam1) == 36
        for e in fam0:
            ok = ok and not e.annihilated
            ok = ok and e.energy == ComplexRational(e.n + e.m + 1,
                                                    (e.m - e.n) * b / 2)
        for e in fam1:
            ok = ok and not e.annihilated
            ok = ok and e.energy == ComplexRational(-(e.n + e.m + 1),
                                                    (e.m - e.n) * b / 2)
    gate(6, "both eigenstate families exact for n, m <= 5 at three b", ok)


def test_criterion_07_annihilation_chains():
    ok = True
    ham, _, _, ladders = setup(Fraction(1))
    z1, z2, z3, z4 = ladders
    psi0, psi1 = vacuum_functions()
    for killer, raiser, state in (
            (z1, z3, psi0), (z2, z4, psi0), (z3, z1, psi1), (z4, z2, psi1)):
        for _ in range(11):
            ok = ok and annihilation_check(killer, state)
            state = apply_operator(raiser, state)
    gate(7, "annihilators keep killing their raised chains up to n = 10", ok)


def test_criterion_08_states_not_normalizable():
    ok = True
    from quadladder.wavefn import DIVERGENT
    for b in B_VALUES:
        for fam in family_entries(b, 5):
            for e in fam:
                ok = ok and not is_square_integrable(e.function)
    psi0, _ = vacuum_functions()
    ok = ok and inner_product(psi0, psi0) is DIVERGENT
    gate(8, "no generated eigenstate is square integrable", ok)


def test_criterion_09_undamped_degenerate_point():
    ham, _, spectrum, ladders = setup(Fraction(0))
    ok = not spectrum.defective
    ok = ok and [f.lam_exact for f in spectrum.frequencies] == [
        ComplexRational(-1), ComplexRational(1)]
    ok = ok and all(f.algebraic_multiplicity == 2
                    and f.geometric_multiplicity == 2
                    for f in spectrum.frequencies)
    ok = ok and [lad.lam_exact for lad in ladders] == [
        ComplexRational(-1), ComplexRational(-1),
        ComplexRational(1), ComplexRational(1)]
    for lad in ladders:
        ok = ok and commutator(ham.op, lad.z) == lad.lam_exact * lad.z
    gate(9, "undamped point: degenerate but complete, two ladders per frequency", ok)


def test_criterion_10_defective_case_refused():
    p = WeylPolynomial.momentum(1, 1)
    ham = validate_quadratic(Fraction(1, 2) * (p * p))
    spectrum = eigen_decompose(adjoint_matrix(ham))
    ok = spectrum.defective
    raised = False
    try:
        build_ladders(ham, spectrum)
    except DefectiveSpectrumError:
        raised = True
    gate(10, "free particle: defective flag set, ladder request refused", ok and raised)


def test_criterion_11_random_hamiltonian_invariants():
    rng = random.Random(SEED)
    ok = True
    checked_ladders = 0
    for _ in range(200):
        num_modes = rng.choice((1, 2, 3))
        ham = validate_quadratic(random_hermitian_quadratic(rng, num_modes))
        matrix = adjoint_matrix(ham)
        dim = 2 * num_modes

        # (a) defining identity, exact
        for i in range(dim):
            basis_i = WeylPolynomial.basis_element(i, num_modes)
            column = [matrix.exact[j][i] for j in range(dim)]
            ok = ok and commutator(ham.op, basis_i) \
                == WeylPolynomial.from_linear(column, num_modes)

        # (e) exact trace
        ok = ok and matrix.trace_exact() == ComplexRational(0)

        spectrum = eigen_decompose(matrix)
        scale = max(1.0, matrix.norm_inf())
        lams = [f.lam for f in spectrum.frequencies]

        # (b) eigenvector residuals
        for f in spectrum.frequencies:
            for vec in f.eigenvectors:
                image = np.array(matrix.entries) @ np.array(vec)
                residual = max(abs(iv - f.lam * v) for iv, v in zip(image, vec))
                ok = ok and residual < 1e-10 * scale

        # (c) frequency pairing under lam -> -conj(lam)
        for lam in lams:
            ok = ok and min(abs(o + lam.conjugate()) for o in lams) < 1e-8

        # (d) ladder commutation residuals where a full set exists
        if not spectrum.defective:
            checked_ladders += 1
            for lad in build_ladders(ham, spectrum):
                if lad.lam_exact is not None:
                    ok = ok and commutator(ham.op, lad.z) == lad.lam_exact * lad.z
                else:
                    diff = commutator(ham.op, lad.z) \
                        - ComplexRational.from_complex(lad.lam) * lad.z
                    coeffs = [diff.constant_term()] + diff.linear_coefficients()
                    ok = ok and max(abs(complex(c)) for c in coeffs) < 1e-9
    ok = ok and checked_ladders >= 50
    gate(11, "200 random Hermitian quadratics: identity, residuals, pairing, trace", ok)


def test_criterion_12_commuting_split():
    ok = True
    for b in B_VALUES:
        h0, h1 = split_h0_h1(b)
        hd = build_hd(b)
        ops = (h0, h1, hd)
        for a in ops:
            for c in ops:
                ok = ok and commutator(a.op, c.op).is_zero
                ok = ok and matrices_commute(adjoint_matrix(a), adjoint_matrix(c))
    gate(12, "undamped part and coupling commute, as operators and matrices", ok)


def test_criterion_13_hermiticity_witness():
    rng = random.Random(SEED)
    ham = build_hd(Fraction(1))
    ok = True

    def small():
        return Fraction(rng.randint(-1, 1), rng.randint(8, 16))

    for _ in range(20):
        while True:
            off = ComplexRational(small(), small())
            quad = (
                (ComplexRational(-1 + small(), small()), off),
                (off, ComplexRational(-1 + small(), small())),
            )
            lin = (ComplexRational(small(), small()),
                   ComplexRational(small(), small()))
            poly = {}
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                poly[exps] = ComplexRational(
                    Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            f = GaussianPolyFunction(num_modes=2, poly=poly, quad=quad, lin=lin)
            if not f.is_zero and is_square_integrable(f):
                break
        while True:
            g = GaussianPolyFunction(
                num_modes=2,
                poly={(rng.randint(0, 2), rng.randint(0, 2)): ComplexRational(1)},
                quad=((ComplexRational(-1, small()), ComplexRational(0)),
                      (ComplexRational(0), ComplexRational(-1, small()))),
                lin=(ComplexRational(0), ComplexRational(small())))
            if is_square_integrable(g):
                break
        ok = ok and hermiticity_witness(ham, f, g) < 1e-10
    gate(13, "hermiticity witness below 1e-10 on 20 integrable pairs", ok)


ROUNDTRIP_CORPUS = [
    "1/2*(px^2 - py^2) + 1/2*(x^2 - y^2) - 1/2*(x*py + y*px)",
    "x1*p1*x1",
    "p1*x1^2",
    "(1 + i)*x1",
    "(1 - i)*(x1 + i*p1)",
    "x1^0",
    "0*x1 + p1",
    "-x^2 + 3/4*y*px - i*py",
    "2*(x1 + p2)*(x1 - p2)",
    "1/3",
    "i",
    "-i",
    "-i*p1^3",
    "x^2 + y^2 + px^2 + py^2",
    "5*x3*p3 - 5*p3*x3",
    "x1*x2*x3*p1*p2*p3",
    "(x + y)*(x + y)",
    "(px - py)*(px - py)",
    "3*(x*px + px*x)",
    "1/7*x1^4",
    "2/3*p2^2 + 1/6*x2^2",
    "(x1 + p1)*(x1 + p1)*(x1 + p1)",
    "x - y",
    "px*py",
    "y*px - x*py",
    "(2 + i)*(2 - i)",
    "x1^2*p1^2",
    "1 + x1 + x1^2 + x1^3",
    "(i)*(i)*(i)*(i)",
    "1/2*x^2 - 1/2*y^2",
]


def test_criterion_14_interfaces_deterministic():
    ok = len(ROUNDTRIP_CORPUS) == 30
    for text in ROUNDTRIP_CORPUS:
        expr = parse_hamiltonian(text)
        rendered = render(expr)
        again = parse_hamiltonian(rendered)
        ok = ok and render(again) == rendered
        ok = ok and lower(expr) == lower(again)

    cmd = [sys.executable, "-m", "quadladder.cli", "--bateman", "b=1",
           "--ladder-states", "2", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = ok and first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout
    doc = json.loads(first.stdout)
    ok = ok and doc["schema"] == "quadladder.report/1"
    ok = ok and [lad["text"] for lad in doc["ladders"]["ladders"]] == LADDER_TEXT
    gate(14, "expression round-trips and byte-identical pipeline reports", ok)
