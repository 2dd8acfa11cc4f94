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
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatchError, NumericFailureError

__all__ = [
    "ComplexRational",
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
    "symbol",
    "word_text",
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
    read-only ``Fraction`` views; ``complex(z)`` gives the float approximation
    and raises NumericFailureError when a part lies beyond the float range.
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
        # lowest terms over powers of two: canonical over the larger denominator
        (a, c), (b, d) = float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()
        return _canonical(a * (d // c), b, d) if c < d else _canonical(a, b * (c // d), c)

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

    @property
    def is_imaginary(self) -> bool:
        return self._a == 0

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
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            raise NumericFailureError(
                "an exact value exceeds the float range and has no float mirror"
            ) from None

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


def _times_i(v: ComplexRational, sign: int = 1) -> ComplexRational:
    """v times i (sign 1) or -i (sign -1): i*(a + b*i)/d = (-b + a*i)/d only
    swaps the numerators, so it stays canonical with no gcd; a zero stays v."""
    if not (v._a or v._b):
        return v
    return _canonical(-sign * v._b, sign * v._a, v._d)


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
    d = lcm(*[v._d for v in values])
    return d, [(v._a * (m := d // v._d), v._b * m) for v in values]


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)

# (-i)^k for k mod 4; used by the reordering identity.
_NEG_I_POW = (ONE, ComplexRational(0, -1), ComplexRational(-1), I)


def symbol(flat: int, num_modes: int) -> str:
    """Name of position ``flat`` in the basis (x1..xK, p1..pK), which orders
    exponent tuples and the adjoint matrix; K = 2 uses x, y, px, py."""
    if not 0 <= flat < 2 * num_modes:
        raise DimensionMismatchError(
            f"flat index {flat} out of range for {num_modes} modes")
    if num_modes == 2:
        return ("x", "y", "px", "py")[flat]
    return f"x{flat + 1}" if flat < num_modes else f"p{flat - num_modes + 1}"


def word_text(exps: tuple[int, ...], num_modes: int) -> str:
    """Text of one normal-ordered word, such as ``x^2*py``."""
    return "*".join(symbol(flat, num_modes) + (f"^{exp}" if exp > 1 else "")
                    for flat, exp in enumerate(exps) if exp)


def _add_term(acc: dict, key, coeff: ComplexRational) -> None:
    """acc[key] += coeff in a term map, dropping the key when the sum is zero."""
    total = acc.get(key, ZERO) + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def format_coefficient(coeff: ComplexRational, *, standalone: bool) -> tuple[str, str]:
    """Render a coefficient for the canonical text form.

    Returns ``(sign, body)`` with ``sign`` in {'+', '-'}.  When ``standalone``
    is false the body ends with '*' (or is empty for a unit coefficient) so a
    monomial can be appended.  Mixed real/imaginary coefficients are rendered
    inside parentheses and always carry sign '+'.  Every body reparses under
    the expression grammar to the same value.
    """
    a, b, d = coeff._a, coeff._b, coeff._d
    if a and b:
        return "+", f"({coeff})" if standalone else f"({coeff})*"
    # one part is zero, so the other's numerator over d is in lowest terms
    n = b or a
    sign = "-" if n < 0 else "+"
    mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    # Fractional magnitudes are parenthesized whenever a '*' follows, so
    # the canonical text never leans on precedence between '/' and '*'.
    if b:
        body = "i" if mag == "1" else f"{mag}*i" if d == 1 else f"({mag})*i"
    elif mag == "1" and not standalone:
        return sign, ""
    else:
        body = mag if standalone or d == 1 else f"({mag})"
    return sign, body if standalone else f"{body}*"


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


def _mode_flat(mode: int, num_modes: int) -> int:
    """Flat index of x<mode>; p<mode> sits num_modes further on."""
    if not 1 <= mode <= num_modes:
        raise DimensionMismatchError(
            f"mode {mode} out of range for {num_modes} modes")
    return mode - 1


class WeylPolynomial:
    """A normal-ordered polynomial with exact complex-rational coefficients.

    ``terms`` maps the exponent tuple (a1..aK, b1..bK) of each word
    x1^a1..xK^aK p1^b1..pK^bK to its coefficient and never stores a zero
    coefficient, so equality of polynomials is equality of the maps.
    ``a * b`` is the (noncommutative) operator product; scalars multiply
    coefficientwise from either side.
    """

    __slots__ = ("num_modes", "terms")

    def __init__(self, num_modes: int,
                 terms: Mapping[tuple[int, ...], ScalarLike] | None = None):
        if num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {num_modes}")
        clean: dict[tuple[int, ...], ComplexRational] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != 2 * num_modes:
                raise DimensionMismatchError(
                    f"exponent tuple of length {len(exps)} in a "
                    f"{num_modes}-mode polynomial")
            if min(exps) < 0:
                raise ValueError(f"exponents must be nonnegative, got {exps}")
            coeff = ComplexRational._coerce(coeff)
            if coeff is NotImplemented:
                raise TypeError(
                    "coefficients must be ComplexRational, int or Fraction")
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "num_modes", num_modes)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylPolynomial is immutable")

    @classmethod
    def _from_terms(cls, num_modes: int, terms: dict) -> "WeylPolynomial":
        """Wrap a term map that is already clean (see __init__), unchecked."""
        poly = _new(cls)
        object.__setattr__(poly, "num_modes", num_modes)
        object.__setattr__(poly, "terms", terms)
        return poly

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_modes: int) -> "WeylPolynomial":
        return cls(num_modes)

    @classmethod
    def constant(cls, value: ScalarLike, num_modes: int) -> "WeylPolynomial":
        return cls(num_modes, {(0,) * (2 * num_modes): value})

    @classmethod
    def basis_element(cls, flat: int, num_modes: int) -> "WeylPolynomial":
        """The generator at position ``flat`` of the basis x1..xK, p1..pK."""
        if not 0 <= flat < 2 * num_modes:
            raise DimensionMismatchError(
                f"flat index {flat} out of range for {num_modes} modes")
        return cls.from_linear(
            [ONE if j == flat else ZERO for j in range(2 * num_modes)], num_modes)

    @classmethod
    def position(cls, mode: int, num_modes: int) -> "WeylPolynomial":
        return cls.basis_element(_mode_flat(mode, num_modes), num_modes)

    @classmethod
    def momentum(cls, mode: int, num_modes: int) -> "WeylPolynomial":
        return cls.basis_element(num_modes + _mode_flat(mode, num_modes), num_modes)

    @classmethod
    def from_linear(cls, coefficients: Iterable[ScalarLike],
                    num_modes: int) -> "WeylPolynomial":
        """Degree-1 polynomial sum_j c_j O_j over the flat basis x1..xK,p1..pK."""
        coeffs = list(coefficients)
        if len(coeffs) != 2 * num_modes:
            raise DimensionMismatchError(
                f"need {2 * num_modes} coefficients, got {len(coeffs)}")
        unit = (0,) * (2 * num_modes)
        return cls(num_modes, {unit[:flat] + (1,) + unit[flat + 1:]: c
                               for flat, c in enumerate(coeffs)})

    # ---- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Maximum total degree of any term; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def coefficient(self, mono: tuple[int, ...]) -> ComplexRational:
        return self.terms.get(mono, ZERO)

    def constant_term(self) -> ComplexRational:
        return self.terms.get((0,) * (2 * self.num_modes), ZERO)

    def as_scalar(self) -> ComplexRational | None:
        """The value of a degree-0 polynomial, or None if any term has degree > 0."""
        if any(map(sum, self.terms)):
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
            if sum(mono) != 1:
                raise ValueError("polynomial is not homogeneous of degree 1: "
                                 f"term {word_text(mono, self.num_modes)!r}")
            flat = mono.index(1)
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
            _add_term(terms, mono, coeff)
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
            return multiply(self, other)
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

    def sorted_terms(self) -> list[tuple[tuple[int, ...], ComplexRational]]:
        """Terms in canonical render order: degree descending, then lex descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def __str__(self):
        return render_terms(
            (coeff, word_text(mono, self.num_modes))
            for mono, coeff in self.sorted_terms())

    def __repr__(self):
        return f"<WeylPolynomial K={self.num_modes}: {self}>"


def _mono_product_terms(
    left: tuple[int, ...], right: tuple[int, ...], num_modes: int
) -> list[tuple[tuple[int, ...], ComplexRational]]:
    """Expansion of (x^a p^b)(x^c p^d) into normal-ordered terms.

    Commuting the middle block p^b past x^c factorizes over modes, so the
    expansion is a product of single-mode reordering identities.  Where no
    mode has b_m c_m != 0 only their k = 0 term is left, with the weight ONE.
    """
    b, c = left[num_modes:], right[:num_modes]
    base = tuple(map(add, left, right))  # x^(a+c) p^(b+d)
    if not any(map(mul, b, c)):
        return [(base, ONE)]
    per_mode = [[factorial(k) * comb(bm, k) * comb(cm, k) for k in range(min(bm, cm) + 1)]
                for bm, cm in zip(b, c)]  # weights k! C(b,k) C(c,k) of each mode
    return [(tuple(map(sub, base, ks + ks)),
             _NEG_I_POW[sum(ks) % 4] * prod(w[k] for w, k in zip(per_mode, ks)))
            for ks in _cartesian(*(range(len(w)) for w in per_mode))]


def multiply(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """Normal-ordered operator product a*b."""
    a._check_modes(b)
    num_modes = a.num_modes
    acc: dict[tuple[int, ...], ComplexRational] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c12 = c1 * c2
            for exps, w in _mono_product_terms(m1, m2, num_modes):
                _add_term(acc, exps, c12 if w is ONE else c12 * w)
    return WeylPolynomial(num_modes, acc)


def commutator(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """[a, b] = a*b - b*a."""
    return multiply(a, b) - multiply(b, a)


def dagger(a: WeylPolynomial) -> WeylPolynomial:
    """Hermitian adjoint: conjugate coefficients, reverse each word, reorder.

    x and p are self-adjoint, so (c * x^a p^b)^+ = conj(c) * p^b x^a, and the
    right-hand side is brought back to normal order with the same reordering
    identity the product uses.
    """
    num_modes = a.num_modes
    acc: dict[tuple[int, ...], ComplexRational] = {}
    reorder = []
    for mono, coeff in a.terms.items():
        if any(map(mul, mono[:num_modes], mono[num_modes:])):
            reorder.append((mono, coeff))
        else:   # p^b x^a with no mode in both is x^a p^b: one term per word
            acc[mono] = coeff.conjugate()
    zeros = (0,) * num_modes
    for mono, coeff in reorder:
        cc = coeff.conjugate()
        # p^b x^a written as (unit * p^b) * (x^a * unit) and reordered.
        for exps, w in _mono_product_terms(
                zeros + mono[num_modes:], mono[:num_modes] + zeros, num_modes):
            _add_term(acc, exps, cc if w is ONE else cc * w)
    return WeylPolynomial._from_terms(num_modes, acc)


def is_hermitian(a: WeylPolynomial) -> bool:
    """True when a equals its own adjoint, compared term map to term map."""
    return a.terms == dagger(a).terms


def degree_decompose(a: WeylPolynomial) -> dict[int, WeylPolynomial]:
    """Split into homogeneous components keyed by total degree.

    Only degrees that actually occur appear in the result; the zero
    polynomial decomposes into the empty map.
    """
    buckets: dict[int, dict[tuple[int, ...], ComplexRational]] = {}
    for mono, coeff in a.terms.items():
        buckets.setdefault(sum(mono), {})[mono] = coeff
    return {
        deg: WeylPolynomial(a.num_modes, terms)
        for deg, terms in sorted(buckets.items())
    }
