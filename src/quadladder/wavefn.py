"""Symbolic wavefunctions: polynomials times Gaussian exponentials.

Functions have the form poly(x) * exp(x^T S x + l^T x) with a symmetric
complex-rational K x K matrix S and complex-rational vector l.  This class of
functions is closed under every degree-preserving operation the package
needs: multiplying by positions, applying momenta p_j = -i d/dx_j, and hence
applying any normal-ordered operator polynomial.  Ladder operators generated
from a quadratic Hamiltonian therefore act exactly, with no floats anywhere.

Operators act through a sector map.  A sector is one Gaussian exponent
Q(x) = x^T S x + l^T x, and conjugating by it turns each momentum into a
differential operator on the polynomial part alone:
exp(-Q) p_j exp(Q) = -i D_j with D_j = d/dx_j + 2(Sx)_j + l_j.  The D_j
commute because S is symmetric, so a normal-ordered term c x^a p^b becomes
c (-i)^|b| x^a D^b, which is expanded once into terms w x^g d^h.  Applying
such a term to x^e needs only a falling factorial, d^h x^e =
prod_j e_j (e_j - 1) ... (e_j - h_j + 1) x^(e - h).  The map keeps its
weights as Gaussian-integer numerators over one shared denominator, the
kernel puts the input polynomial over one denominator the same way,
accumulates plain int pairs, and normalises each output coefficient once.
All states of a ladder family share the vacuum's sector, so ladder_spectrum
builds one map each for H and the two raising ladders and reuses them for
the whole grid.

Sums of such functions over distinct exponents (needed to witness that a
mixture of eigenfunctions is not an eigenfunction) are represented by
GaussianPolySum, which the checking operations accept as well.

Integrals <f|g> are evaluated by eliminating one variable at a time:
complete the square in the last variable, push the completed square into the
exponent of the remaining variables (a Schur-complement update, done in exact
arithmetic), and pair the leftover powers with single-variable Gaussian
moments.  Only the final sqrt/exp factors are floats, and each square root
has positive real part under it, so the principal branch is always correct.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from operator import add

from .adjoint import ComplexMatrix, QuadraticHamiltonian
from .errors import DivergentInputError, NumericFailureError, VerificationError
from .ladders import LadderOperator
# Imported by name: the characteristic_polynomial module attribute that
# perfbench/trace.py wraps keeps timing the spectral path alone.
from .spectral import characteristic_polynomial
from .weyl import (
    ComplexRational,
    ONE,
    WeylPolynomial,
    ZERO,
    _common_denominator,
    _ratio,
    _reduced,
)

__all__ = [
    "GaussianPolyFunction",
    "GaussianPolySum",
    "SpectrumEntry",
    "DIVERGENT",
    "apply_operator",
    "eigencheck",
    "ladder_spectrum",
    "annihilation_check",
    "is_square_integrable",
    "inner_product",
    "hermiticity_witness",
    "function_to_json",
    "spectrum_to_json",
    "spectrum_to_csv",
]

CPoly = dict[tuple[int, ...], ComplexRational]

_NEG_I = ComplexRational(0, -1)


class _Divergent:
    """Sentinel returned by inner_product when the integral diverges."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGENT"


DIVERGENT = _Divergent()


# ---------------------------------------------------------------------------
# commutative polynomial helpers (exponent tuple -> coefficient)
# ---------------------------------------------------------------------------

def _cp_add_term(acc: CPoly, exps: tuple[int, ...], coeff: ComplexRational) -> None:
    total = acc.get(exps, ZERO) + coeff
    if total:
        acc[exps] = total
    else:
        acc.pop(exps, None)


def _cp_scale(p: CPoly, s: ComplexRational) -> CPoly:
    if not s:
        return {}
    return {e: c * s for e, c in p.items()}


def _cp_add(a: CPoly, b: CPoly) -> CPoly:
    out = dict(a)
    for e, c in b.items():
        _cp_add_term(out, e, c)
    return out


def _cp_mul(a: CPoly, b: CPoly) -> CPoly:
    out: CPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _cp_add_term(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _cp_conj(p: CPoly) -> CPoly:
    return {e: c.conjugate() for e, c in p.items()}


def _cp_text(p: CPoly, num_modes: int) -> str:
    """Canonical text over position symbols: the operator text of p."""
    return str(WeylPolynomial(
        num_modes, {e + (0,) * num_modes: c for e, c in p.items()}))


# ---------------------------------------------------------------------------
# the function types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPolyFunction:
    """poly(x) * exp(x^T quad x + lin^T x) over K positions, all exact.

    ``quad`` must be symmetric; ``poly`` maps exponent tuples of length K to
    nonzero coefficients (the empty map is the zero function).
    """

    num_modes: int
    poly: CPoly
    quad: tuple[tuple[ComplexRational, ...], ...]
    lin: tuple[ComplexRational, ...]

    def __post_init__(self):
        k = self.num_modes
        quad = tuple(
            tuple(ComplexRational._coerce(v) for v in row) for row in self.quad)
        if len(quad) != k or any(len(r) != k for r in quad):
            raise ValueError(f"quad must be {k}x{k}")
        for i in range(k):
            for j in range(i + 1, k):
                if quad[i][j] != quad[j][i]:
                    raise ValueError("quad must be symmetric")
        lin = tuple(ComplexRational._coerce(v) for v in self.lin)
        if len(lin) != k:
            raise ValueError(f"lin must have length {k}")
        poly: CPoly = {}
        for exps, coeff in self.poly.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != k or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            _cp_add_term(poly, exps, ComplexRational._coerce(coeff))
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "poly", poly)

    @classmethod
    def pure_gaussian(cls, quad, lin=None) -> "GaussianPolyFunction":
        """exp(x^T quad x + lin^T x) with polynomial part 1."""
        quad = tuple(tuple(row) for row in quad)
        k = len(quad)
        if lin is None:
            lin = (ZERO,) * k
        return cls(num_modes=k, poly={(0,) * k: ONE}, quad=quad, lin=tuple(lin))

    @property
    def is_zero(self) -> bool:
        return not self.poly

    def _sector(self):
        return (
            tuple(tuple(v.as_quad() for v in row) for row in self.quad),
            tuple(v.as_quad() for v in self.lin),
        )

    def conjugate(self) -> "GaussianPolyFunction":
        return GaussianPolyFunction(
            num_modes=self.num_modes,
            poly=_cp_conj(self.poly),
            quad=tuple(tuple(v.conjugate() for v in row) for row in self.quad),
            lin=tuple(v.conjugate() for v in self.lin),
        )

    def scaled(self, s) -> "GaussianPolyFunction":
        s = ComplexRational._coerce(s)
        return GaussianPolyFunction(
            self.num_modes, _cp_scale(self.poly, s), self.quad, self.lin)

    def __add__(self, other):
        if isinstance(other, GaussianPolySum):
            return GaussianPolySum.from_components((self,) + other.components)
        if not isinstance(other, GaussianPolyFunction):
            return NotImplemented
        if self.num_modes != other.num_modes:
            raise ValueError("mode counts differ")
        if self._sector() == other._sector():
            return GaussianPolyFunction(
                self.num_modes, _cp_add(self.poly, other.poly), self.quad, self.lin)
        return GaussianPolySum.from_components((self, other))

    def __sub__(self, other):
        if isinstance(other, (GaussianPolyFunction, GaussianPolySum)):
            return self + other.scaled(-1)
        return NotImplemented

    def __str__(self):
        exponent_terms = []
        for i in range(self.num_modes):
            for j in range(i, self.num_modes):
                coeff = self.quad[i][j] if i == j else 2 * self.quad[i][j]
                if coeff:
                    exps = [0] * self.num_modes
                    exps[i] += 1
                    exps[j] += 1
                    exponent_terms.append((tuple(exps), coeff))
        for j, v in enumerate(self.lin):
            if v:
                exps = [0] * self.num_modes
                exps[j] = 1
                exponent_terms.append((tuple(exps), v))
        exp_txt = _cp_text(dict(exponent_terms), self.num_modes)
        return f"({_cp_text(self.poly, self.num_modes)}) * exp({exp_txt})"


@dataclass(frozen=True)
class GaussianPolySum:
    """A sum of GaussianPolyFunction terms with pairwise distinct exponents.

    Functions with different Gaussian sectors are linearly independent, so
    the canonical form (merge equal sectors, drop zero terms, sort by
    sector) makes equality structural.
    """

    components: tuple[GaussianPolyFunction, ...]

    @classmethod
    def from_components(cls, comps) -> "GaussianPolySum":
        by_sector: dict = {}
        num_modes = None
        for f in comps:
            if num_modes is None:
                num_modes = f.num_modes
            elif f.num_modes != num_modes:
                raise ValueError("mode counts differ")
            key = f._sector()
            if key in by_sector:
                by_sector[key] = GaussianPolyFunction(
                    f.num_modes, _cp_add(by_sector[key].poly, f.poly),
                    f.quad, f.lin)
            else:
                by_sector[key] = f
        kept = sorted(
            (f for f in by_sector.values() if not f.is_zero),
            key=lambda f: f._sector())
        return cls(components=tuple(kept))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def scaled(self, s) -> "GaussianPolySum":
        return GaussianPolySum.from_components(
            tuple(f.scaled(s) for f in self.components))

    def __add__(self, other):
        if isinstance(other, GaussianPolyFunction):
            return GaussianPolySum.from_components(self.components + (other,))
        if isinstance(other, GaussianPolySum):
            return GaussianPolySum.from_components(
                self.components + other.components)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (GaussianPolyFunction, GaussianPolySum)):
            return self + other.scaled(-1)
        return NotImplemented

    def __str__(self):
        if not self.components:
            return "0"
        return " + ".join(str(f) for f in self.components)


# ---------------------------------------------------------------------------
# applying operators
# ---------------------------------------------------------------------------

def _left_d(terms: dict, j: int, quad, lin) -> dict:
    """D_j composed from the left onto {(gamma, delta): w} = sum w x^gamma d^delta.

    D_j = d/dx_j + L_j with L_j = sum_t 2*quad[j][t]*x_t + lin[j]; moving
    d/dx_j past x^gamma leaves gamma_j * x^(gamma - e_j) behind.
    """
    out: dict = {}
    for (gamma, delta), w in terms.items():
        if gamma[j]:
            lowered = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]
            _cp_add_term(out, (lowered, delta), w * gamma[j])
        _cp_add_term(out, (gamma, delta[:j] + (delta[j] + 1,) + delta[j + 1:]), w)
        for t, s in enumerate(quad[j]):
            if s:
                raised = gamma[:t] + (gamma[t] + 1,) + gamma[t + 1:]
                _cp_add_term(out, (raised, delta), w * (2 * s))
        if lin[j]:
            _cp_add_term(out, (gamma, delta), w * lin[j])
    return out


def _sector_map(op: WeylPolynomial, f: GaussianPolyFunction):
    """op conjugated by exp(Q) for f's exponent Q, as integer terms.

    exp(-Q) p_j exp(Q) = -i D_j, so the term c x^alpha p^beta acts on the
    polynomial part as c (-i)^|beta| x^alpha D^beta.  Expanded, that is a
    sum of w x^gamma d^delta, and d^delta x^e is a falling factorial times
    x^(e - delta).  The map is ``(den, groups)``: each group holds the
    nonzero orders ``(j, delta_j)`` of one delta and its terms
    ``(gamma - delta, a, b)`` with w = (a + b*i)/den.
    """
    k = f.num_modes
    if op.num_modes != k:
        raise ValueError("operator and function mode counts differ")
    zero = (0,) * k
    terms: dict = {}
    for mono, coeff in op.terms.items():
        alpha, beta = mono.exps[:k], mono.exps[k:]
        d_beta: dict = {(zero, zero): coeff * _NEG_I ** sum(beta)}
        for j, b in enumerate(beta):
            for _ in range(b):
                d_beta = _left_d(d_beta, j, f.quad, f.lin)
        for (gamma, delta), w in d_beta.items():
            shift = tuple(a + g - d for a, g, d in zip(alpha, gamma, delta))
            _cp_add_term(terms, (delta, shift), w)
    den, pairs = _common_denominator(terms.values())
    groups: dict = {}
    for ((delta, shift), (a, b)) in zip(terms, pairs):
        groups.setdefault(delta, []).append((shift, a, b))
    return den, tuple(
        (tuple((j, d) for j, d in enumerate(delta) if d), group)
        for delta, group in groups.items())


def _apply_map(smap, f: GaussianPolyFunction) -> GaussianPolyFunction:
    """smap's operator applied to f, which must lie in smap's sector.

    Integer kernel: f's coefficients go over one shared denominator, every
    product accumulates as a pair of ints, and each output coefficient is
    normalised once at the end.
    """
    den, groups = smap
    f_den, f_pairs = _common_denominator(f.poly.values())
    acc: dict = {}
    for e, (fa, fb) in zip(f.poly, f_pairs):
        for derivs, group in groups:
            ff = 1
            for j, d in derivs:
                ff *= perm(e[j], d)
            if not ff:
                continue
            qa, qb = ff * fa, ff * fb
            for shift, wa, wb in group:
                out = tuple(map(add, e, shift))
                re = wa * qa - wb * qb
                im = wa * qb + wb * qa
                slot = acc.get(out)
                if slot is None:
                    acc[out] = [re, im]
                else:
                    slot[0] += re
                    slot[1] += im
    d = den * f_den
    return _in_sector(f, {
        e: _reduced(a, b, d) for e, (a, b) in acc.items() if a or b})


def _in_sector(f: GaussianPolyFunction, poly: CPoly) -> GaussianPolyFunction:
    """poly times f's Gaussian, skipping re-validation.

    f's quad and lin were validated when f was built, and poly must map
    exponent tuples of length K to canonical nonzero coefficients.
    """
    g = object.__new__(GaussianPolyFunction)
    object.__setattr__(g, "num_modes", f.num_modes)
    object.__setattr__(g, "poly", poly)
    object.__setattr__(g, "quad", f.quad)
    object.__setattr__(g, "lin", f.lin)
    return g


def _apply_to_function(op: WeylPolynomial,
                       f: GaussianPolyFunction) -> GaussianPolyFunction:
    """op applied to f through one sector map built for f's sector."""
    return _apply_map(_sector_map(op, f), f)


def apply_operator(op, f):
    """Apply a normal-ordered operator (p_j = -i d/dx_j) to a wavefunction.

    Accepts a WeylPolynomial, a QuadraticHamiltonian, or a LadderOperator
    as the operator, and a GaussianPolyFunction or GaussianPolySum as the
    function; the result has the same Gaussian sectors as the input.
    """
    op = _as_polynomial(op)
    if isinstance(f, GaussianPolySum):
        return GaussianPolySum.from_components(
            tuple(_apply_to_function(op, comp) for comp in f.components))
    return _apply_to_function(op, f)


def _as_polynomial(op) -> WeylPolynomial:
    if isinstance(op, WeylPolynomial):
        return op
    if isinstance(op, QuadraticHamiltonian):
        return op.op
    if isinstance(op, LadderOperator):
        return op.z
    raise TypeError(f"cannot interpret {type(op).__name__} as an operator")


# ---------------------------------------------------------------------------
# eigen checks and spectra
# ---------------------------------------------------------------------------

def eigencheck(ham: QuadraticHamiltonian, f) -> ComplexRational | None:
    """The exact eigenvalue E with H f == E f, or None when f is no eigenfunction.

    f must be nonzero.  For sums over several Gaussian sectors, every sector
    must be an eigenfunction with one common eigenvalue (sectors are linearly
    independent, so this is the only way the sum can be one).
    """
    if isinstance(f, GaussianPolySum):
        if f.is_zero:
            raise ValueError("eigencheck requires a nonzero function")
        values = [_ratio(_apply_to_function(ham.op, comp).poly, comp.poly)
                  for comp in f.components]
        if any(v is None for v in values):
            return None
        if all(v == values[0] for v in values):
            return values[0]
        return None
    if f.is_zero:
        raise ValueError("eigencheck requires a nonzero function")
    return _ratio(_apply_to_function(ham.op, f).poly, f.poly)


@dataclass(frozen=True)
class SpectrumEntry:
    """State (raise_a)^n (raise_b)^m |vacuum> with its exact energy.

    ``annihilated`` marks grid points where the ladder product vanished;
    those carry no function but keep the energy the closed form predicts.
    """

    n: int
    m: int
    energy: ComplexRational
    family: str
    function: GaussianPolyFunction | None
    annihilated: bool = False


def ladder_spectrum(ham: QuadraticHamiltonian,
                    vacuum: GaussianPolyFunction,
                    raise_a: LadderOperator,
                    raise_b: LadderOperator,
                    n_max: int,
                    m_max: int,
                    family: str = "") -> list[SpectrumEntry]:
    """States raise_a^n raise_b^m vacuum for the full (n, m) grid, verified.

    The vacuum must be a nonzero eigenfunction and both ladders must carry
    exact frequencies.  Each generated state is then verified by applying H
    to it exactly and testing proportionality against
    E(vacuum) + n*lambda_a + m*lambda_b; any mismatch raises
    VerificationError.  Vanishing states are reported as annihilated entries
    rather than errors.  Every state lies in the vacuum's Gaussian sector, so
    H and both ladders are each turned into one sector map for the grid.
    """
    if vacuum.is_zero:
        raise ValueError("ladder_spectrum requires a nonzero vacuum")
    h_map = _sector_map(ham.op, vacuum)
    e_vac = _ratio(_apply_map(h_map, vacuum).poly, vacuum.poly)
    if e_vac is None:
        raise ValueError("vacuum is not an eigenfunction of the Hamiltonian")
    if raise_a.lam_exact is None or raise_b.lam_exact is None:
        raise ValueError("ladder_spectrum needs ladders with exact frequencies")
    lam_a = raise_a.lam_exact
    lam_b = raise_b.lam_exact
    a_map = _sector_map(raise_a.z, vacuum)
    b_map = _sector_map(raise_b.z, vacuum)
    base_row = [vacuum]
    for _ in range(m_max):
        base_row.append(_apply_map(b_map, base_row[-1]))
    grid = [base_row]
    for _ in range(n_max):
        grid.append([_apply_map(a_map, fn) for fn in grid[-1]])
    entries: list[SpectrumEntry] = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            current = grid[n][m]
            energy = e_vac + n * lam_a + m * lam_b
            if current.is_zero:
                entries.append(SpectrumEntry(
                    n=n, m=m, energy=energy, family=family,
                    function=None, annihilated=True))
                continue
            found = _ratio(_apply_map(h_map, current).poly, current.poly)
            if found != energy:
                raise VerificationError(
                    f"state (n={n}, m={m}) has eigenvalue {found}, "
                    f"expected {energy}")
            entries.append(SpectrumEntry(
                n=n, m=m, energy=energy, family=family,
                function=current, annihilated=False))
    return entries


def annihilation_check(z, f) -> bool:
    """Whether applying the ladder (or bare operator) kills f exactly."""
    return apply_operator(_as_polynomial(z), f).is_zero


# ---------------------------------------------------------------------------
# square integrability and inner products
# ---------------------------------------------------------------------------

def _real_part_matrix(quad) -> list[list[Fraction]]:
    return [[2 * v.re for v in row] for row in quad]


def _negative_definite(mat: list[list[Fraction]]) -> bool:
    """Whether a rational symmetric matrix S is negative definite.

    The eigenvalues of S are real, so they are all negative exactly when
    every coefficient of det(lambda*I - S) is positive (Descartes' rule of
    signs).  characteristic_polynomial gives det(S - lambda*I), which has
    the same coefficients times (-1)^n, the sign of its leading one.
    """
    char = characteristic_polynomial(ComplexMatrix(mat))
    return all(c.re * char[-1].re > 0 for c in char)


def is_square_integrable(f) -> bool:
    """Whether the integral of |f|^2 over R^K converges.

    True exactly when quad + conj(quad) is negative definite (decided from
    its exact characteristic polynomial); polynomial factors never affect the
    verdict.  The zero function is trivially integrable.
    """
    if isinstance(f, GaussianPolySum):
        return all(is_square_integrable(comp) for comp in f.components)
    if f.is_zero:
        return True
    return _negative_definite(_real_part_matrix(f.quad))


def _double_factorial_odd(j: int) -> int:
    """(j-1)!! for even j >= 0."""
    out = 1
    for t in range(j - 1, 0, -2):
        out *= t
    return out


def _gaussian_integral(poly: CPoly,
                       quad: tuple[tuple[ComplexRational, ...], ...],
                       lin: tuple[ComplexRational, ...]) -> complex:
    """Exact-symbolic integral of poly * exp(x^T quad x + lin^T x) over R^K.

    Requires Re(quad) negative definite (callers check).  Variables are
    eliminated last to first; all polynomial and exponent bookkeeping stays
    rational, and each elimination contributes sqrt(pi / -a) with Re(a) < 0,
    so every square root takes the principal branch on the right half plane.
    """
    n = len(lin)
    a_mat = [list(row) for row in quad]
    b_vec = list(lin)
    g: CPoly = dict(poly)
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
        l_poly: CPoly = {}                          # L with x_k coefficient split off
        for j in range(k):
            coeff = 2 * a_mat[j][k]
            if coeff:
                exps = [0] * k
                exps[j] = 1
                _cp_add_term(l_poly, tuple(exps), coeff)
        if b_vec[k]:
            _cp_add_term(l_poly, (0,) * k, b_vec[k])

        # integrate x_k: x_k^mm pairs with moments of the shifted Gaussian
        new_g: CPoly = {}
        groups: dict[int, CPoly] = {}
        for exps, coeff in g.items():
            groups.setdefault(exps[-1], {})[exps[:-1]] = coeff
        l_powers: dict[int, CPoly] = {0: {(0,) * k: ONE}}
        max_m = max(groups)
        for t in range(1, max_m + 1):
            l_powers[t] = _cp_mul(l_powers[t - 1], l_poly)
        for mm, rest_poly in groups.items():
            shifted_sum: CPoly = {}
            for j in range(0, mm + 1, 2):
                weight = (comb(mm, j) * _double_factorial_odd(j)) * (
                    sigma2 ** (j // 2 + mm - j))
                for exps, coeff in l_powers[mm - j].items():
                    _cp_add_term(shifted_sum, exps, coeff * weight)
            for e1, c1 in rest_poly.items():
                for e2, c2 in shifted_sum.items():
                    _cp_add_term(new_g, tuple(x + y for x, y in zip(e1, e2)),
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


def _pointwise_conj_mul(f: GaussianPolyFunction,
                        g: GaussianPolyFunction) -> GaussianPolyFunction:
    if f.num_modes != g.num_modes:
        raise ValueError("mode counts differ")
    fc = f.conjugate()
    return GaussianPolyFunction(
        num_modes=f.num_modes,
        poly=_cp_mul(fc.poly, g.poly),
        quad=tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(fc.quad, g.quad)),
        lin=tuple(a + b for a, b in zip(fc.lin, g.lin)),
    )


def inner_product(f, g):
    """<f|g> = integral of conj(f)*g over R^K, or DIVERGENT.

    The product's exponent must have a negative definite real part for the
    integral to exist; that is decided exactly before any evaluation.  Sums
    expand bilinearly and are DIVERGENT if any cross term is.
    """
    f_comps = f.components if isinstance(f, GaussianPolySum) else (f,)
    g_comps = g.components if isinstance(g, GaussianPolySum) else (g,)
    total = 0j
    for fc in f_comps:
        for gc in g_comps:
            h = _pointwise_conj_mul(fc, gc)
            if h.is_zero:
                continue
            if not _negative_definite(_real_part_matrix(h.quad)):
                return DIVERGENT
            total += _gaussian_integral(h.poly, h.quad, h.lin)
    return total


def hermiticity_witness(ham: QuadraticHamiltonian, f, g) -> float:
    """|<f|Hg> - <Hf|g>|, which vanishes for Hermitian H on integrable states.

    Both functions must be square integrable; violating that raises
    DivergentInputError naming the offender.
    """
    for name, fn in (("f", f), ("g", g)):
        if not is_square_integrable(fn):
            raise DivergentInputError(
                f"hermiticity witness needs square-integrable inputs; "
                f"{name} is not")
    lhs = inner_product(f, apply_operator(ham.op, g))
    rhs = inner_product(apply_operator(ham.op, f), g)
    assert lhs is not DIVERGENT and rhs is not DIVERGENT
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def function_to_json(f: GaussianPolyFunction) -> dict:
    """Schema: exact polynomial terms (sorted), exponent matrix and vector."""
    ordered = sorted(f.poly.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return {
        "num_modes": f.num_modes,
        "poly": [
            {"exps": list(e), "coeff": list(c.as_quad())} for e, c in ordered
        ],
        "quad": [[list(v.as_quad()) for v in row] for row in f.quad],
        "lin": [list(v.as_quad()) for v in f.lin],
        "text": str(f),
    }


def _integrable_flags(entries: list[SpectrumEntry]) -> list[bool | None]:
    """is_square_integrable of each entry's function (None without one).

    The verdict depends only on the Gaussian exponent, and a family's states
    share their vacuum's, so it is decided once per distinct ``quad``.
    """
    by_quad: dict = {}
    flags: list[bool | None] = []
    for entry in entries:
        f = entry.function
        if isinstance(f, GaussianPolyFunction) and not f.is_zero:
            if f.quad not in by_quad:
                by_quad[f.quad] = is_square_integrable(f)
            flags.append(by_quad[f.quad])
        else:
            flags.append(None if f is None else is_square_integrable(f))
    return flags


def _entry_row(entry: SpectrumEntry, integrable: bool | None) -> dict:
    return {
        "n": entry.n,
        "m": entry.m,
        "energy": [complex(entry.energy).real, complex(entry.energy).imag],
        "energy_exact": list(entry.energy.as_quad()),
        "annihilated": entry.annihilated,
        "square_integrable": integrable,
    }


def spectrum_to_json(entries: list[SpectrumEntry],
                     include_functions: bool = False) -> dict:
    """Schema: family label plus one row per state with energy (float and
    exact), annihilation flag, and square-integrability flag."""
    doc: dict = {
        "family": entries[0].family if entries else "",
        "states": [_entry_row(e, flag)
                   for e, flag in zip(entries, _integrable_flags(entries))],
    }
    if include_functions:
        for row, entry in zip(doc["states"], entries):
            row["function"] = (
                None if entry.function is None else function_to_json(entry.function))
    return doc


def spectrum_to_csv(entries: list[SpectrumEntry]) -> str:
    """CSV columns: n, m, energy_re, energy_im, annihilated, square_integrable."""
    lines = ["n,m,energy_re,energy_im,annihilated,square_integrable"]
    for e, integrable in zip(entries, _integrable_flags(entries)):
        row = _entry_row(e, integrable)
        flag = "" if integrable is None else str(integrable).lower()
        lines.append(
            f"{e.n},{e.m},{row['energy'][0]!r},{row['energy'][1]!r},"
            f"{str(e.annihilated).lower()},{flag}")
    return "\n".join(lines) + "\n"
