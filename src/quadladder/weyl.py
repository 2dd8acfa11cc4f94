"""Exact polynomial algebra over canonical position and momentum operators.

The algebra has generators x1..xK, p1..pK for K modes, subject to the
commutation relations [x_m, p_n] = i*delta_mn and [x_m, x_n] = [p_m, p_n] = 0.
Every polynomial is stored normal ordered: within each monomial all position
factors stand to the left of all momentum factors, and modes appear in
ascending order.  Coefficients are exact complex rationals, so all algebraic
identities in this module hold exactly, not up to rounding.

A complex rational is three Python ints (a, b, d) meaning (a + b*i)/d, kept
canonical: d > 0 and gcd(a, b, d) == 1.  Arithmetic is integer arithmetic
plus one gcd per result, and equality compares the three ints.

Products are computed with the per-mode reordering identity

    p^b x^c = sum_k  k! C(b,k) C(c,k) (-i)^k  x^(c-k) p^(b-k),

which different modes obey independently because their factors commute.

All value types here are immutable; operations return new objects, which
makes them safe to share across threads.
"""

from fractions import Fraction
from itertools import product as _cartesian
from math import comb, factorial, gcd, lcm
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import DimensionMismatchError

__all__ = [
    "ComplexRational",
    "BasisIndex",
    "Monomial",
    "WeylPolynomial",
    "ZERO",
    "ONE",
    "I",
    "commutator",
    "dagger",
    "is_hermitian",
    "degree_decompose",
    "multiply",
    "format_coefficient",
]

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "ComplexRational"]


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as three Python ints ``(a, b, d)`` meaning ``(a + b*i) / d``, with
    ``d > 0`` and ``gcd(a, b, d) == 1``.  The form is canonical, so equal
    values have equal triples; zero is ``(0, 0, 1)``.  Every operation is
    integer arithmetic followed by at most one three-argument gcd.

    Closed under +, -, *, and / (nonzero divisor).  Instances are immutable
    (the triple is private, as in ``fractions.Fraction``) and hashable, and a
    real value hashes like the ``Fraction`` it equals.  ``re`` and ``im`` are
    read-only ``Fraction`` views; ``complex(z)`` gives the float approximation.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        d1, d2 = re.denominator, im.denominator
        if d1 == d2:
            self._a, self._b, self._d = re.numerator, im.numerator, d1
        else:
            # Both parts are in lowest terms, so over lcm(d1, d2) the triple
            # is already canonical.
            d = d1 // gcd(d1, d2) * d2
            self._a = re.numerator * (d // d1)
            self._b = im.numerator * (d // d2)
            self._d = d

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexRational":
        """Exact conversion of a float complex (binary fractions, no rounding)."""
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    @staticmethod
    def _coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(value)
        return NotImplemented

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "ComplexRational":
        return _canonical(self._a, -self._b, self._d)

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __add__(self, other):
        if type(other) is int:
            # gcd(a + n*d, b, d) == gcd(a, b, d): still canonical.
            return _canonical(self._a + other * self._d, self._b, self._d)
        if type(other) is not ComplexRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _canonical(self._a - other * self._d, self._b, self._d)
        if type(other) is not ComplexRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1,
                        self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is ComplexRational:
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                            self._d * other._d)
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ComplexRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2)
        #     = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self._d * norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as Fraction.__float__ is.
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def as_quad(self) -> tuple[int, int, int, int]:
        """Numerator/denominator quadruple used by the JSON serializers."""
        a, b, d = self._a, self._b, self._d
        ga, gb = gcd(a, d), gcd(b, d)
        return (a // ga, d // ga, b // gb, d // gb)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        return f"{re}{sign}{imtxt}"


_new = object.__new__


def _canonical(a: int, b: int, d: int) -> ComplexRational:
    """Wrap a triple that is already canonical (d > 0, gcd(a, b, d) == 1)."""
    z = _new(ComplexRational)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> ComplexRational:
    """Canonical ComplexRational for (a + b*i)/d with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(ComplexRational)
    z._a, z._b, z._d = a, b, d
    return z


def _common_denominator(values: Iterable[ComplexRational]
                        ) -> tuple[int, list[tuple[int, int]]]:
    """The least common denominator d of values and their numerators over it.

    Returns ``(d, [(a, b), ...])`` with ``value == (a + b*i)/d`` for each
    value in order; ``_reduced(a, b, d)`` turns a pair back into a value.
    """
    values = list(values)
    d = lcm(*(v._d for v in values))
    pairs = []
    for v in values:
        m = d // v._d
        pairs.append((v._a * m, v._b * m))
    return d, pairs


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)

# (-i)^k for k mod 4; used by the reordering identity.
_NEG_I_POW = (ONE, ComplexRational(0, -1), ComplexRational(-1), I)


@dataclass(frozen=True)
class BasisIndex:
    """One canonical generator: kind 'x' or 'p' plus a 1-based mode number.

    The total order (positions first, then momenta, modes ascending) fixes
    both the normal-ordered form of monomials and the row/column layout of
    the adjoint matrix.
    """

    kind: str
    mode: int

    def __post_init__(self):
        if self.kind not in ("x", "p"):
            raise ValueError(f"kind must be 'x' or 'p', got {self.kind!r}")
        if self.mode < 1:
            raise ValueError(f"mode must be a positive integer, got {self.mode}")

    @property
    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == "x" else 1, self.mode)

    def __lt__(self, other: "BasisIndex") -> bool:
        return self.sort_key < other.sort_key

    def flat(self, num_modes: int) -> int:
        """Index into the length-2K basis vector (x1..xK, p1..pK)."""
        if self.mode > num_modes:
            raise DimensionMismatchError(
                f"mode {self.mode} out of range for {num_modes} modes")
        offset = 0 if self.kind == "x" else num_modes
        return offset + self.mode - 1

    @classmethod
    def from_flat(cls, index: int, num_modes: int) -> "BasisIndex":
        if not 0 <= index < 2 * num_modes:
            raise DimensionMismatchError(
                f"flat index {index} out of range for {num_modes} modes")
        if index < num_modes:
            return cls("x", index + 1)
        return cls("p", index - num_modes + 1)

    def symbol(self, num_modes: int) -> str:
        """Display name; two-mode systems use the aliases x, y, px, py."""
        if num_modes == 2:
            name = ("x", "y") if self.kind == "x" else ("px", "py")
            return name[self.mode - 1]
        return f"{self.kind}{self.mode}"


class Monomial:
    """A normal-ordered word x1^a1..xK^aK p1^b1..pK^bK.

    Stored as the exponent tuple (a1..aK, b1..bK).  The empty word (all
    exponents zero) is the multiplicative unit.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = tuple(int(e) for e in exps)
        if len(exps) % 2 != 0:
            raise ValueError("exponent tuple must have even length (x parts then p parts)")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def unit(cls, num_modes: int) -> "Monomial":
        return cls((0,) * (2 * num_modes))

    @property
    def num_modes(self) -> int:
        return len(self.exps) // 2

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def exponent(self, index: BasisIndex) -> int:
        return self.exps[index.flat(self.num_modes)]

    def factors(self) -> Iterator[BasisIndex]:
        """Yield the generators of the word with multiplicity, in order."""
        for flat, exp in enumerate(self.exps):
            idx = BasisIndex.from_flat(flat, self.num_modes)
            for _ in range(exp):
                yield idx

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Graded-lexicographic key; render order is descending on this."""
        return (self.degree, self.exps)

    def symbol_text(self) -> str:
        parts = []
        for flat, exp in enumerate(self.exps):
            if exp == 0:
                continue
            name = BasisIndex.from_flat(flat, self.num_modes).symbol(self.num_modes)
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps!r})"


def format_coefficient(coeff: ComplexRational, *, standalone: bool) -> tuple[str, str]:
    """Render a coefficient for the canonical text form.

    Returns ``(sign, body)`` with ``sign`` in {'+', '-'}.  When ``standalone``
    is false the body ends with '*' (or is empty for a unit coefficient) so a
    monomial can be appended.  Mixed real/imaginary coefficients are rendered
    inside parentheses and always carry sign '+'.  Every body reparses under
    the expression grammar to the same value.
    """
    re, im = coeff.re, coeff.im

    def magnitude(mag: Fraction, imag: bool) -> str:
        # Fractional magnitudes are parenthesized whenever a '*' follows, so
        # the canonical text never leans on precedence between '/' and '*'.
        if imag:
            if mag == 1:
                return "i"
            return f"{mag}*i" if mag.denominator == 1 else f"({mag})*i"
        if mag.denominator == 1:
            return str(mag)
        return str(mag) if standalone else f"({mag})"

    if im == 0:
        sign = "-" if re < 0 else "+"
        mag = abs(re)
        if not standalone and mag == 1:
            return sign, ""
        body = magnitude(mag, imag=False)
        return sign, body if standalone else f"{body}*"
    if re == 0:
        sign = "-" if im < 0 else "+"
        body = magnitude(abs(im), imag=True)
        return sign, body if standalone else f"{body}*"
    imsign = "+" if im > 0 else "-"
    immag = abs(im)
    imtxt = "i" if immag == 1 else f"{immag}*i"
    body = f"({re}{imsign}{imtxt})"
    return "+", body if standalone else f"{body}*"


def render_terms(parts: Iterable[tuple[ComplexRational, str]]) -> str:
    """Join (coefficient, monomial-text) pairs into canonical expression text."""
    pieces: list[str] = []
    for coeff, mono_txt in parts:
        sign, body = format_coefficient(coeff, standalone=not mono_txt)
        term = body + mono_txt if mono_txt else body
        if not pieces:
            pieces.append(term if sign == "+" else f"-{term}")
        else:
            pieces.append(f" {sign} {term}")
    return "".join(pieces) if pieces else "0"


def _reorder_coefficients(b: int, c: int) -> list[int]:
    """Integer weights k! C(b,k) C(c,k) of the single-mode reordering identity."""
    return [factorial(k) * comb(b, k) * comb(c, k) for k in range(min(b, c) + 1)]


class WeylPolynomial:
    """A normal-ordered polynomial with exact complex-rational coefficients.

    The term map never stores zero coefficients, so equality of polynomials
    is equality of the maps.  ``a * b`` is the (noncommutative) operator
    product; scalars multiply coefficientwise from either side.
    """

    __slots__ = ("num_modes", "terms")

    def __init__(self, num_modes: int,
                 terms: Mapping[Monomial, ComplexRational] | None = None):
        if num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {num_modes}")
        clean: dict[Monomial, ComplexRational] = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if mono.num_modes != num_modes:
                raise DimensionMismatchError(
                    f"monomial over {mono.num_modes} modes in a "
                    f"{num_modes}-mode polynomial")
            coeff = ComplexRational._coerce(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "num_modes", num_modes)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylPolynomial is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_modes: int) -> "WeylPolynomial":
        return cls(num_modes)

    @classmethod
    def constant(cls, value: ScalarLike, num_modes: int) -> "WeylPolynomial":
        return cls(num_modes, {Monomial.unit(num_modes): ComplexRational._coerce(value)})

    @classmethod
    def basis_element(cls, index: BasisIndex, num_modes: int) -> "WeylPolynomial":
        exps = [0] * (2 * num_modes)
        exps[index.flat(num_modes)] = 1
        return cls(num_modes, {Monomial(exps): ONE})

    @classmethod
    def position(cls, mode: int, num_modes: int) -> "WeylPolynomial":
        return cls.basis_element(BasisIndex("x", mode), num_modes)

    @classmethod
    def momentum(cls, mode: int, num_modes: int) -> "WeylPolynomial":
        return cls.basis_element(BasisIndex("p", mode), num_modes)

    @classmethod
    def from_linear(cls, coefficients: Iterable[ScalarLike],
                    num_modes: int) -> "WeylPolynomial":
        """Degree-1 polynomial sum_j c_j O_j over the flat basis x1..xK,p1..pK."""
        coeffs = list(coefficients)
        if len(coeffs) != 2 * num_modes:
            raise DimensionMismatchError(
                f"need {2 * num_modes} coefficients, got {len(coeffs)}")
        terms = {}
        for flat, c in enumerate(coeffs):
            exps = [0] * (2 * num_modes)
            exps[flat] = 1
            terms[Monomial(exps)] = ComplexRational._coerce(c)
        return cls(num_modes, terms)

    # ---- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Maximum total degree of any term; 0 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> ComplexRational:
        return self.terms.get(mono, ZERO)

    def constant_term(self) -> ComplexRational:
        return self.terms.get(Monomial.unit(self.num_modes), ZERO)

    def as_scalar(self) -> ComplexRational | None:
        """The value of a degree-0 polynomial, or None if any term has degree > 0."""
        if any(m.degree > 0 for m in self.terms):
            return None
        return self.constant_term()

    def linear_coefficients(self) -> list[ComplexRational]:
        """Coefficient vector over the flat basis; requires degree <= 1 terms only.

        The constant part must also vanish: this accessor exists to read off
        commutators of a quadratic operator with basis elements, which are
        homogeneous of degree 1 (or zero).
        """
        out = [ZERO] * (2 * self.num_modes)
        for mono, coeff in self.terms.items():
            if mono.degree != 1:
                raise ValueError(
                    f"polynomial is not homogeneous of degree 1: term {mono.symbol_text()!r}")
            flat = mono.exps.index(1)
            out[flat] = coeff
        return out

    # ---- ring operations ----------------------------------------------

    def _check_modes(self, other: "WeylPolynomial") -> None:
        if self.num_modes != other.num_modes:
            raise DimensionMismatchError(
                f"mode counts differ: {self.num_modes} vs {other.num_modes}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = WeylPolynomial.constant(other, self.num_modes)
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        self._check_modes(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = terms.get(mono, ZERO) + coeff
            if total:
                terms[mono] = total
            else:
                terms.pop(mono, None)
        return WeylPolynomial(self.num_modes, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = WeylPolynomial.constant(other, self.num_modes)
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeylPolynomial(
            self.num_modes, {m: -c for m, c in self.terms.items()})

    def _scaled(self, scalar: ComplexRational) -> "WeylPolynomial":
        if not scalar:
            return WeylPolynomial.zero(self.num_modes)
        return WeylPolynomial(
            self.num_modes, {m: c * scalar for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylPolynomial):
            return _multiply(self, other)
        scalar = ComplexRational._coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self._scaled(scalar)

    def __rmul__(self, other):
        scalar = ComplexRational._coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self._scaled(scalar)

    def __truediv__(self, other):
        scalar = ComplexRational._coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self._scaled(ONE / scalar)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = WeylPolynomial.constant(other, self.num_modes)
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self.num_modes == other.num_modes and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_modes, frozenset(self.terms.items())))

    # ---- involution and structure --------------------------------------

    def dagger(self) -> "WeylPolynomial":
        return dagger(self)

    def commutator(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return commutator(self, other)

    @property
    def is_hermitian(self) -> bool:
        return self == dagger(self)

    def sorted_terms(self) -> list[tuple[Monomial, ComplexRational]]:
        """Terms in canonical render order: degree descending, then lex descending."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key, reverse=True)

    def __str__(self):
        return render_terms(
            (coeff, mono.symbol_text()) for mono, coeff in self.sorted_terms())

    def __repr__(self):
        return f"<WeylPolynomial K={self.num_modes}: {self}>"


def _mono_product_terms(
    left: tuple[int, ...], right: tuple[int, ...], num_modes: int
) -> Iterator[tuple[tuple[int, ...], ComplexRational]]:
    """Expansion of (x^a p^b)(x^c p^d) into normal-ordered terms.

    Commuting the middle block p^b past x^c factorizes over modes, so the
    expansion is a product of single-mode reordering identities.
    """
    a = left[:num_modes]
    b = left[num_modes:]
    c = right[:num_modes]
    d = right[num_modes:]
    per_mode = [_reorder_coefficients(b[m], c[m]) for m in range(num_modes)]
    for ks in _cartesian(*(range(len(w)) for w in per_mode)):
        weight = 1
        for m, k in enumerate(ks):
            weight *= per_mode[m][k]
        coeff = _NEG_I_POW[sum(ks) % 4] * weight
        new_x = tuple(a[m] + c[m] - ks[m] for m in range(num_modes))
        new_p = tuple(b[m] + d[m] - ks[m] for m in range(num_modes))
        yield new_x + new_p, coeff


def _multiply(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    a._check_modes(b)
    num_modes = a.num_modes
    acc: dict[tuple[int, ...], ComplexRational] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c12 = c1 * c2
            for exps, w in _mono_product_terms(m1.exps, m2.exps, num_modes):
                total = acc.get(exps, ZERO) + c12 * w
                if total:
                    acc[exps] = total
                else:
                    acc.pop(exps, None)
    return WeylPolynomial(num_modes, {Monomial(e): c for e, c in acc.items()})


def multiply(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """Normal-ordered operator product a*b."""
    return _multiply(a, b)


def commutator(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """[a, b] = a*b - b*a."""
    return _multiply(a, b) - _multiply(b, a)


def dagger(a: WeylPolynomial) -> WeylPolynomial:
    """Hermitian adjoint: conjugate coefficients, reverse each word, reorder.

    x and p are self-adjoint, so (c * x^a p^b)^+ = conj(c) * p^b x^a, and the
    right-hand side is brought back to normal order with the same reordering
    identity the product uses.
    """
    num_modes = a.num_modes
    acc: dict[tuple[int, ...], ComplexRational] = {}
    zeros = (0,) * num_modes
    for mono, coeff in a.terms.items():
        cc = coeff.conjugate()
        x_part = mono.exps[:num_modes]
        p_part = mono.exps[num_modes:]
        # p^b x^a written as (unit * p^b) * (x^a * unit) and reordered.
        for exps, w in _mono_product_terms(zeros + p_part, x_part + zeros, num_modes):
            total = acc.get(exps, ZERO) + cc * w
            if total:
                acc[exps] = total
            else:
                acc.pop(exps, None)
    return WeylPolynomial(num_modes, {Monomial(e): c for e, c in acc.items()})


def is_hermitian(a: WeylPolynomial) -> bool:
    """True when a equals its own adjoint."""
    return a == dagger(a)


def degree_decompose(a: WeylPolynomial) -> dict[int, WeylPolynomial]:
    """Split into homogeneous components keyed by total degree.

    Only degrees that actually occur appear in the result; the zero
    polynomial decomposes into the empty map.
    """
    buckets: dict[int, dict[Monomial, ComplexRational]] = {}
    for mono, coeff in a.terms.items():
        buckets.setdefault(mono.degree, {})[mono] = coeff
    return {
        deg: WeylPolynomial(a.num_modes, terms)
        for deg, terms in sorted(buckets.items())
    }


def _ratio(num: Mapping, den: Mapping) -> ComplexRational | None:
    """The scalar r with num == r*den termwise, or None when none exists.

    Both are term maps (key -> nonzero coefficient), such as
    ``WeylPolynomial.terms`` or a wavefunction's ``poly``.
    """
    if not num:
        return ZERO if den else None
    if len(num) != len(den):
        return None
    ref = next(iter(den))
    if ref not in num:
        return None
    ratio = num[ref] / den[ref]
    for key, coeff in den.items():
        if num.get(key) != ratio * coeff:
            return None
    return ratio
