"""The damped/amplified oscillator pair model and its dimensionless form.

The physical model couples a damped oscillator to its time-reversed
(amplifying) mirror so the pair is conservative.  After scaling away the
mass, frequency, and hbar, a single dimensionless damping ratio

    b = gamma / (m * omega)

remains, and the Hamiltonian over the two modes (x, y) = (x1, x2) is

    H_d = (px^2 - py^2)/2 + (x^2 - y^2)/2 - (b/2)(x*py + y*px).

H_d splits as H0 + H1 with H0 = H_d at b = 0; the two parts commute with
each other and with H_d, which makes b a deformation that can be analyzed
with the same ladder machinery at every value.

The two Gaussian vacua exp(-x^2/2 + y^2/2) and exp(+x^2/2 - y^2/2) seed the
two ladder families; neither is square integrable, which is the price of
the model's complex natural frequencies.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .adjoint import QuadraticHamiltonian, validate_quadratic
from .weyl import ComplexRational, WeylPolynomial

__all__ = [
    "BatemanParams",
    "dimensionless_b",
    "build_hd",
    "split_h0_h1",
    "vacuum_functions",
]


@dataclass(frozen=True)
class BatemanParams:
    """Physical parameters: mass m, damping gamma, frequency omega, hbar.

    All are exact rationals; m, omega, hbar must be positive and gamma
    nonnegative (gamma = 0 is the undamped, degenerate point).
    """

    m: Fraction
    gamma: Fraction
    omega: Fraction
    hbar: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "m", Fraction(self.m))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "omega", Fraction(self.omega))
        object.__setattr__(self, "hbar", Fraction(self.hbar))
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


def dimensionless_b(params: BatemanParams) -> Fraction:
    """The single surviving parameter b = gamma / (m * omega)."""
    return params.gamma / (params.m * params.omega)


def build_hd(b) -> QuadraticHamiltonian:
    """The dimensionless two-mode Hamiltonian H_d at damping ratio b >= 0."""
    b = Fraction(b)
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    half = Fraction(1, 2)
    # exponents (x1, x2, p1, p2); every word is already normal ordered
    return validate_quadratic(WeylPolynomial(2, {
        (0, 0, 2, 0): half, (0, 0, 0, 2): -half,
        (2, 0, 0, 0): half, (0, 2, 0, 0): -half,
        (1, 0, 0, 1): -b / 2, (0, 1, 1, 0): -b / 2,
    }))


def split_h0_h1(b) -> tuple[QuadraticHamiltonian, QuadraticHamiltonian]:
    """H_d = H0 + H1 with H0 the undamped part and H1 the b-coupling.

    [H0, H1] = 0, so both commute with H_d as well; H1 is the zero operator
    at b = 0.
    """
    full = build_hd(b)
    h0 = build_hd(0)
    h1_op = full.op - h0.op
    return h0, validate_quadratic(h1_op)


@cache
def vacuum_functions() -> tuple["GaussianPolyFunction", "GaussianPolyFunction"]:
    """The two ladder-family vacua: exp(-x^2/2 + y^2/2) and its reflection.

    The first is annihilated by the lowering pair (negative real part
    frequencies) and has H_d eigenvalue +1; the second by the raising pair,
    with eigenvalue -1.  Both hold at every b, so one pair, never mutated,
    serves the whole process.
    """
    from .wavefn import GaussianPolyFunction

    half = Fraction(1, 2)
    psi0 = GaussianPolyFunction.pure_gaussian(
        ((ComplexRational(-half), ComplexRational(0)),
         (ComplexRational(0), ComplexRational(half))))
    psi1 = GaussianPolyFunction.pure_gaussian(
        ((ComplexRational(half), ComplexRational(0)),
         (ComplexRational(0), ComplexRational(-half))))
    return psi0, psi1
