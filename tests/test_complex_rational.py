"""ComplexRational against a two-Fraction reference implementation.

``FractionPair`` is the straightforward representation (one ``Fraction`` for
each part).  Every operation of the integer-triple ``ComplexRational`` must
give the same value, the same text and the same exceptions, and every result
must be in canonical form.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadladder.weyl import ComplexRational, _times_i


class FractionPair:
    """Reference: a complex rational held as two ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    @classmethod
    def from_complex(cls, z):
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    @staticmethod
    def _coerce(value):
        if isinstance(value, FractionPair):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionPair(value)
        return NotImplemented

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    @property
    def is_real(self):
        return self.im == 0

    @property
    def is_imaginary(self):
        return self.re == 0

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPair(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return FractionPair((self.re * other.re + self.im * other.im) / den,
                            (self.im * other.re - self.re * other.im) / den)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = FractionPair(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def as_quad(self):
        return (self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{imtxt}"


# Small values exercise equal denominators, zeros and units; unbounded ones
# exercise large cancellations.
rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.fractions(),
)
pairs = st.tuples(rationals, rationals)
scalars = st.one_of(st.integers(-10**30, 10**30), st.fractions())
PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)


def both(pair):
    return ComplexRational(*pair), FractionPair(*pair)


def assert_canonical(z):
    assert type(z) is ComplexRational
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0
    assert math.gcd(a, b, d) == 1


def assert_same(z, ref):
    assert_canonical(z)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert str(z) == str(ref)
    assert repr(z) == repr(ref)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ZeroDivisionError, TypeError) as exc:
        return "raises", type(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_same(got[1], want[1])
    else:
        assert got[1] is want[1]


OPS = [
    lambda u, v: u + v,
    lambda u, v: u - v,
    lambda u, v: u * v,
    lambda u, v: u / v,
]


@PROPERTY
@given(pairs, pairs)
def test_binary_operations_and_hash_match_reference(x, y):
    z, zr = both(x)
    w, wr = both(y)
    for op in OPS:
        assert_same_outcome(outcome(op, z, w), outcome(op, zr, wr))
        assert_same_outcome(outcome(op, w, z), outcome(op, wr, zr))
    assert (z == w) == (zr == wr)
    assert (z != w) == (zr != wr)
    if z == w:
        assert hash(z) == hash(w)
    if z.is_real:
        assert z == z.re and hash(z) == hash(z.re)
        if z.re.denominator == 1:
            assert z == z.re.numerator and hash(z) == hash(z.re.numerator)


@PROPERTY
@given(pairs, scalars)
def test_int_and_fraction_operands_match_reference(x, s):
    z, zr = both(x)
    for op in OPS:
        assert_same_outcome(outcome(op, z, s), outcome(op, zr, s))
        assert_same_outcome(outcome(op, s, z), outcome(op, s, zr))
    assert (z == s) == (zr == s)
    assert (s == z) == (s == zr)


@PROPERTY
@given(pairs, st.integers(-2, 7))
def test_unary_operations_match_reference(x, n):
    z, zr = both(x)
    assert_same(-z, -zr)
    assert_same(+z, +zr)
    assert_same(z.conjugate(), zr.conjugate())
    assert_same_outcome(outcome(pow, z, n), outcome(pow, zr, n))
    assert bool(z) is bool(zr)
    assert z.is_real is zr.is_real
    assert z.is_imaginary is zr.is_imaginary
    assert z.as_quad() == zr.as_quad()
    assert complex(z) == complex(zr)
    assert abs(z) == abs(zr)
    assert z == z.re + z.im * ComplexRational(0, 1)


@PROPERTY
@given(pairs)
def test_rotation_by_i_matches_reference(x):
    z, zr = both(x)
    i = FractionPair(0, 1)
    assert_same(_times_i(z), i * zr)
    assert_same(_times_i(z, -1), -i * zr)
    if not z:
        assert _times_i(z) is z and _times_i(z, -1) is z


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(finite, finite)
def test_from_complex_matches_reference(re, im):
    assert_same(ComplexRational.from_complex(complex(re, im)),
                FractionPair.from_complex(complex(re, im)))


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, -3.0)


@PROPERTY
@given(st.one_of(finite, st.sampled_from(EDGE_FLOATS)),
       st.one_of(finite, st.sampled_from(EDGE_FLOATS)))
@example(0.0, -0.0)
@example(5e-324, 1e308)
@example(-1e308, -5e-324)
def test_from_complex_equals_the_fraction_construction(re, im):
    """The canonical triple read off float.as_integer_ratio() is the one
    the constructor builds from two Fractions and their lcm."""
    z = ComplexRational.from_complex(complex(re, im))
    assert_canonical(z)
    want = ComplexRational(Fraction(re), Fraction(im))
    assert z == want and z.as_quad() == want.as_quad()


@pytest.mark.parametrize("value", [
    complex(0, float("nan")), complex(float("-inf"), 1.5), complex(float("inf"), float("nan")),
])
def test_from_complex_raises_what_fraction_raises(value):
    """inf and NaN in either part raise the exception Fraction(float) raises."""
    with pytest.raises(Exception) as want:
        ComplexRational(Fraction(value.real), Fraction(value.imag))
    with pytest.raises(want.type):
        ComplexRational.from_complex(value)


@pytest.mark.parametrize("value, error", [
    (complex(float("nan"), 0), ValueError),
    (complex(0, float("inf")), OverflowError),
])
def test_from_complex_rejects_non_finite(value, error):
    with pytest.raises(error):
        FractionPair.from_complex(value)
    with pytest.raises(error):
        ComplexRational.from_complex(value)


def test_division_by_zero_raises():
    for zero in (ComplexRational(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            ComplexRational(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / ComplexRational(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / ComplexRational(Fraction(0, 5), 0)


def test_constructor_accepts_what_fraction_accepts():
    assert_same(ComplexRational(0.25, True), FractionPair(0.25, True))
    assert_same(ComplexRational(Fraction(6, 4), Fraction(-5, 6)),
                FractionPair(Fraction(6, 4), Fraction(-5, 6)))
    assert_same(ComplexRational(), FractionPair())
    with pytest.raises(TypeError):
        ComplexRational(ComplexRational(1))


def test_unsupported_operands_are_not_implemented():
    z = ComplexRational(1, 2)
    for other in (1.5, 1j, "1", None):
        assert z != other
        with pytest.raises(TypeError):
            z + other
        with pytest.raises(TypeError):
            other * z


def test_real_values_hash_like_their_rational():
    """A dict keyed by an int or Fraction finds the equal ComplexRational."""
    keyed = {3: "three", Fraction(1, 2): "half", Fraction(-7, 4): "neg"}
    assert keyed[ComplexRational(3)] == "three"
    assert keyed[ComplexRational(Fraction(1, 2))] == "half"
    assert keyed[ComplexRational(Fraction(-7, 4), 0)] == "neg"
    assert {ComplexRational(Fraction(1, 2)): 1}[Fraction(1, 2)] == 1
    assert len({ComplexRational(5), 5, Fraction(5)}) == 1


def test_parts_are_read_only():
    z = ComplexRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)
    with pytest.raises(AttributeError):
        z.im = Fraction(3)
