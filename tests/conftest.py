"""Shared test helpers: seeded random generators and an independent
product oracle that reorders operator words one adjacent swap at a time."""

import random
from fractions import Fraction

import pytest

from quadladder.weyl import (
    ComplexRational,
    WeylPolynomial,
    dagger,
)

SEED = 20260814

MINUS_I = ComplexRational(0, -1)


@pytest.fixture
def rng():
    return random.Random(SEED)


def ratio(num, den):
    """The scalar r with num == r*den termwise, or None when none exists.

    Both are term maps (key -> nonzero coefficient), such as
    ``WeylPolynomial.terms`` or a wavefunction's ``poly``: the oracle the
    eigenvalue and ladder tests compare against.
    """
    if not num:
        return ComplexRational(0) if den else None
    if len(num) != len(den):
        return None
    ref = next(iter(den))
    if ref not in num:
        return None
    r = num[ref] / den[ref]
    for key, coeff in den.items():
        if num.get(key) != r * coeff:
            return None
    return r


def random_fraction(rng, max_num=6, max_den=4, allow_zero=True):
    num = rng.randint(-max_num, max_num)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_crat(rng, max_num=6, max_den=4, allow_zero=True):
    value = ComplexRational(random_fraction(rng, max_num, max_den),
                            random_fraction(rng, max_num, max_den))
    if not allow_zero:
        while not value:
            value = ComplexRational(random_fraction(rng, max_num, max_den),
                                    random_fraction(rng, max_num, max_den))
    return value


def random_monomial(rng, num_modes, max_degree=3):
    exps = [0] * (2 * num_modes)
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(2 * num_modes)] += 1
    return tuple(exps)


def random_polynomial(rng, num_modes, max_terms=4, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_monomial(rng, num_modes, max_degree)] = random_crat(rng)
    return WeylPolynomial(num_modes, terms)


def random_hermitian_quadratic(rng, num_modes):
    """g + dagger(g) + real constant, with g built from degree-2 monomials.

    Retries until the quadratic part survives the symmetrization, so callers
    get a genuinely quadratic Hermitian operator.
    """
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2 * num_modes)):
            exps = [0] * (2 * num_modes)
            for _ in range(2):
                exps[rng.randrange(2 * num_modes)] += 1
            terms[tuple(exps)] = random_crat(rng)
        g = WeylPolynomial(num_modes, terms)
        h = g + dagger(g) + WeylPolynomial.constant(random_fraction(rng), num_modes)
        if h.degree == 2:
            return h


def _order_word(word, num_modes, coeff, acc):
    """Normal order a word of flat indices by adjacent swaps.

    Flat order (x1..xK, then p1..pK) is normal order, and p_m x_m, the pair
    at flat distance num_modes, swaps to x_m p_m - i.
    """
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            _order_word(word[:i] + (b, a) + word[i + 2:], num_modes, coeff, acc)
            if a - b == num_modes:
                _order_word(word[:i] + word[i + 2:], num_modes,
                            coeff * MINUS_I, acc)
            return
    acc[word] = acc.get(word, ComplexRational(0)) + coeff


def _flat_word(exps):
    return tuple(flat for flat, exp in enumerate(exps) for _ in range(exp))


def naive_multiply(a, b):
    """Product oracle: expand to generator words, reorder swap by swap."""
    num_modes = a.num_modes
    acc = {}
    for mono_a, coeff_a in a.terms.items():
        for mono_b, coeff_b in b.terms.items():
            _order_word(_flat_word(mono_a) + _flat_word(mono_b), num_modes,
                        coeff_a * coeff_b, acc)
    return WeylPolynomial(num_modes, {
        tuple(word.count(flat) for flat in range(2 * num_modes)): coeff
        for word, coeff in acc.items()})
