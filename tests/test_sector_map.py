"""The sector-map kernel of wavefn against the per-term product rule.

``reference_apply`` is the direct way to apply a normal-ordered operator to
poly(x) * exp(Q): differentiate against the exponent one momentum at a time
(product rule), then multiply by the positions, term by term, in
``ComplexRational`` arithmetic.  ``apply_operator`` must agree with it
exactly, and the states it derives without re-validation must equal the
same data passed through the validating constructor.
"""

import random
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_crat, random_fraction, random_polynomial
from quadladder.wavefn import GaussianPolyFunction, GaussianPolySum, apply_operator
from quadladder.weyl import ComplexRational, WeylPolynomial

ZERO = ComplexRational(0)
MINUS_I = ComplexRational(0, -1)


# ---------------------------------------------------------------------------
# the reference: product rule against the exponent, one momentum at a time
# ---------------------------------------------------------------------------

def _add_term(acc, exps, coeff):
    total = acc.get(exps, ZERO) + coeff
    if total:
        acc[exps] = total
    else:
        acc.pop(exps, None)


def _diff(poly, j):
    out = {}
    for exps, coeff in poly.items():
        if exps[j]:
            _add_term(out, exps[:j] + (exps[j] - 1,) + exps[j + 1:], coeff * exps[j])
    return out


def _shift_x(poly, j):
    return {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in poly.items()}


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add_term(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _gaussian_derivative(poly, j, f):
    """d/dx_j of poly*exp(Q), divided by exp(Q)."""
    k = f.num_modes
    linear = {}
    for t in range(k):
        if f.quad[j][t]:
            _add_term(linear, tuple(int(s == t) for s in range(k)), 2 * f.quad[j][t])
    if f.lin[j]:
        _add_term(linear, (0,) * k, f.lin[j])
    out = _diff(poly, j)
    for exps, coeff in _mul(poly, linear).items():
        _add_term(out, exps, coeff)
    return out


def reference_apply(op, f):
    """op applied to f by the product rule, through the validating constructor."""
    k = f.num_modes
    acc = {}
    for mono, coeff in op.terms.items():
        x_part, p_part = mono[:k], mono[k:]
        g = dict(f.poly)
        for j in range(k):          # momenta act first: rightmost in normal order
            for _ in range(p_part[j]):
                g = _gaussian_derivative(g, j, f)
        scale = coeff * MINUS_I ** sum(p_part)
        for j in range(k):
            for _ in range(x_part[j]):
                g = _shift_x(g, j)
        for exps, c in g.items():
            _add_term(acc, exps, c * scale)
    return GaussianPolyFunction(k, acc, f.quad, f.lin)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_sector(rng, k):
    quad = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            quad[i][j] = quad[j][i] = random_crat(rng)
    return tuple(map(tuple, quad)), tuple(random_crat(rng) for _ in range(k))


def random_function(rng, k, sector, max_degree=3, fix=None):
    """A random polynomial in sector; fix=(j, n) gives x_j the power n throughout."""
    poly = {}
    for _ in range(rng.randint(1, 5)):
        exps = [rng.randint(0, max_degree) for _ in range(k)]
        if fix is not None:
            exps[fix[0]] = fix[1]
        poly[tuple(exps)] = random_crat(rng)
    return GaussianPolyFunction(k, poly, *sector)


def random_ladder(rng, k):
    """A random degree-1 operator sum_j c_j O_j over (x1..xK, p1..pK)."""
    return WeylPolynomial.from_linear([random_crat(rng) for _ in range(2 * k)], k)


def annihilator(sector, j, k):
    """p_j + i*(2 (Sx)_j + l_j), which kills exp(Q) and every x_j-free factor."""
    quad, lin = sector
    i = ComplexRational(0, 1)
    op = WeylPolynomial.momentum(j + 1, k) + WeylPolynomial.constant(i * lin[j], k)
    for t in range(k):
        op = op + (2 * i * quad[j][t]) * WeylPolynomial.position(t + 1, k)
    return op


def assert_same(got, want):
    assert got == want
    assert got.poly == want.poly and got.quad == want.quad and got.lin == want.lin


def assert_validated(f):
    """f equals its own data passed through the validating constructor."""
    assert f == GaussianPolyFunction(f.num_modes, dict(f.poly), f.quad, f.lin)
    for exps, coeff in f.poly.items():
        assert type(exps) is tuple and len(exps) == f.num_modes
        assert coeff
        assert coeff == ComplexRational(coeff.re, coeff.im)  # canonical triple
        assert coeff._d > 0 and gcd(coeff._a, coeff._b, coeff._d) == 1


# ---------------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------------

KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           suppress_health_check=[HealthCheck.too_slow])


@KERNEL_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 3))
def test_single_functions_match_reference(seed, num_modes):
    rng = random.Random(seed)
    f = random_function(rng, num_modes, random_sector(rng, num_modes))
    for op in (random_polynomial(rng, num_modes, max_terms=4, max_degree=2),
               random_polynomial(rng, num_modes, max_terms=2, max_degree=4),
               random_ladder(rng, num_modes),
               WeylPolynomial.constant(random_fraction(rng), num_modes)):
        got = apply_operator(op, f)
        assert_same(got, reference_apply(op, f))
        assert_validated(got)


@KERNEL_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 3))
def test_sums_match_reference(seed, num_modes):
    rng = random.Random(seed)
    parts = [random_function(rng, num_modes, random_sector(rng, num_modes))
             for _ in range(rng.randint(2, 3))]
    total = GaussianPolySum.from_components(parts)
    op = random_polynomial(rng, num_modes, max_terms=4, max_degree=2)
    got = apply_operator(op, total)
    want = GaussianPolySum.from_components(
        tuple(reference_apply(op, comp) for comp in total.components))
    assert got == want
    for comp in got.components:
        assert_validated(comp)


@KERNEL_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), num_modes=st.integers(1, 3))
def test_vanishing_results_match_reference(seed, num_modes):
    rng = random.Random(seed)
    sector = random_sector(rng, num_modes)
    j = rng.randrange(num_modes)
    kill = annihilator(sector, j, num_modes)
    f = random_function(rng, num_modes, sector, fix=(j, 0))
    got = apply_operator(kill, f)
    assert got.is_zero
    assert_same(got, reference_apply(kill, f))
    assert_validated(got)
    # a random combination of all the annihilators kills the pure Gaussian
    combo = WeylPolynomial.zero(num_modes)
    for t in range(num_modes):
        combo = combo + random_crat(rng) * annihilator(sector, t, num_modes)
    vacuum = GaussianPolyFunction.pure_gaussian(*sector)
    assert apply_operator(combo, vacuum).is_zero
    assert reference_apply(combo, vacuum).is_zero
    # x_j d/dx_j - n keeps every term and cancels only in the accumulation
    n = rng.randint(0, 3)
    euler = ComplexRational(0, 1) * WeylPolynomial.position(j + 1, num_modes) * kill - n
    h = random_function(rng, num_modes, sector, fix=(j, n))
    got = apply_operator(euler, h)
    assert got.is_zero
    assert_same(got, reference_apply(euler, h))
    # and a nonzero part survives where the reference says so
    g = random_function(rng, num_modes, sector)
    assert_same(apply_operator(kill, g), reference_apply(kill, g))
