"""Expression language: parsing, lowering, rendering, error reporting."""

from fractions import Fraction

import pytest

from quadladder.bateman import build_hd
from quadladder.dsl import (
    MAX_MODES,
    MAX_PRODUCT_TERMS,
    MAX_TERM_DEGREE,
    infer_num_modes,
    lower,
    parse_hamiltonian,
    parse_to_polynomial,
    render,
)
from quadladder.errors import AliasConflictError, ParseError
from quadladder.weyl import ComplexRational, WeylPolynomial


def roundtrip(text):
    expr = parse_hamiltonian(text)
    return render(expr), expr


class TestLowering:
    def test_bateman_text(self):
        parsed = parse_to_polynomial(
            "1/2*(px^2 - py^2) + 1/2*(x^2 - y^2) - 1/2*(x*py + y*px)")
        assert parsed == build_hd(Fraction(1)).op

    def test_numbered_symbols(self):
        got = parse_to_polynomial("x1*p1 - p1*x1")
        assert got == WeylPolynomial.constant(ComplexRational(0, 1), 1)

    def test_products_keep_operator_order(self):
        x = WeylPolynomial.position(1, 1)
        p = WeylPolynomial.momentum(1, 1)
        assert parse_to_polynomial("x1*p1*x1") == x * p * x
        assert parse_to_polynomial("p1*x1^2") == p * x * x

    def test_parenthesized_sums_distribute(self):
        x = WeylPolynomial.position(1, 1)
        got = parse_to_polynomial("(1+i)*x1")
        assert got == ComplexRational(1, 1) * x

    def test_imaginary_unit_and_powers(self):
        p = WeylPolynomial.momentum(2, 2)
        assert parse_to_polynomial("i*py^2") == ComplexRational(0, 1) * p * p

    def test_leading_sign(self):
        x = WeylPolynomial.position(1, 1)
        assert parse_to_polynomial("-x1^2 + x1^2") == WeylPolynomial.zero(1)
        assert parse_to_polynomial("+2*x1") == 2 * x

    def test_zero_exponent_and_zero_factor(self):
        assert parse_to_polynomial("x1^0") == WeylPolynomial.constant(1, 1)
        assert parse_to_polynomial("0*x1 + p1") == WeylPolynomial.momentum(1, 1)

    def test_fractions(self):
        assert parse_to_polynomial("3/4") == WeylPolynomial.constant(Fraction(3, 4), 1)


class TestModeInference:
    def test_aliases_mean_two_modes(self):
        assert infer_num_modes(parse_hamiltonian("x^2")) == 2
        assert infer_num_modes(parse_hamiltonian("py")) == 2

    def test_numbered_means_max_index(self):
        assert infer_num_modes(parse_hamiltonian("x1^2 + p3^2")) == 3
        assert infer_num_modes(parse_hamiltonian("p1*p1")) == 1

    def test_scalar_defaults_to_one_mode(self):
        assert infer_num_modes(parse_hamiltonian("5")) == 1

    def test_mode_index_is_capped(self):
        top = f"x{MAX_MODES}^2 + p1^2"
        assert infer_num_modes(parse_hamiltonian(top)) == MAX_MODES
        with pytest.raises(ParseError, match=r"'p99999' exceeds the limit of 16"):
            infer_num_modes(parse_hamiltonian("x99999^2 + p99999^2"))
        with pytest.raises(ParseError, match=r"'x17' exceeds"):
            infer_num_modes(parse_hamiltonian(f"x{MAX_MODES + 1}^2"))
        # Too many digits for int(): refused by length, before conversion.
        with pytest.raises(ParseError, match=r"\(5000 digits\)' exceeds"):
            infer_num_modes(parse_hamiltonian("x" + "1" * 5000 + "^2"))


class TestRendering:
    CORPUS = [
        "1/2*(px^2 - py^2) + 1/2*(x^2 - y^2) - 1/2*(x*py + y*px)",
        "x1*p1*x1",
        "(1 + i)*x1",
        "x1^0 + 0*x1",
        "-x^2 + 3/4*y*px - i*py",
        "2*(x1 + p2)*(x1 - p2)",
        "1/3",
        "i",
        "-i*p1^3",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_render_is_stable(self, text):
        once, expr = roundtrip(text)
        twice, expr2 = roundtrip(once)
        assert twice == once
        assert lower(expr) == lower(expr2)

    def test_canonical_polynomial_text_reparses(self):
        op = build_hd(Fraction(1)).op
        assert parse_to_polynomial(str(op)) == op


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("2x", "expected"),
        ("x1 + ", "expected"),
        ("(x1", "')'"),
        ("x1^", "number"),
        ("i^2", "expected"),
        ("1/0", "zero"),
        ("q1", "unknown symbol"),
        ("x0", "unknown symbol"),
        ("", "expected"),
        ("x1^-2", "number"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian(text)
        assert fragment in str(err.value)

    def test_positions_are_reported(self):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian("x1 + @")
        assert err.value.line == 1
        assert err.value.col == 6

    def test_multiline_positions(self):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian("x1 +\n  q7")
        assert err.value.line == 2
        assert err.value.col == 3

    def test_alias_conflict(self):
        with pytest.raises(AliasConflictError) as err:
            parse_hamiltonian("x^2 + p1^2")
        message = str(err.value)
        assert "x" in message and "p1" in message

    def test_alias_conflict_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_hamiltonian("py*x2")


class TestSizeBounds:
    """Oversized products and powers are refused before they are built."""

    SUM32 = "(" + " + ".join(
        [f"x{k}" for k in range(1, 17)] + [f"p{k}" for k in range(1, 17)]) + ")"

    def test_full_quadratic_form_is_admitted(self):
        expr = parse_hamiltonian(f"1/2*{self.SUM32}*{self.SUM32}")
        assert len(expr.terms) == MAX_PRODUCT_TERMS == 32 * 32

    def test_product_term_bound(self):
        with pytest.raises(ParseError, match="4096 terms; the limit is 1024") as err:
            parse_hamiltonian("*".join(["(x+y+px+py)"] * 10))
        assert (err.value.line, err.value.col) == (1, 60)   # the sixth '*'

    def test_term_degree_bound(self):
        parse_hamiltonian(f"x1^{MAX_TERM_DEGREE} + x1*x2*x3*p1*p2*p3")
        with pytest.raises(ParseError, match="degree 400; the limit is 6") as err:
            parse_hamiltonian("p1^400*x1^400 - x1^400*p1^400")
        assert (err.value.line, err.value.col) == (1, 1)
        with pytest.raises(ParseError, match="degree 7") as err:
            parse_hamiltonian("x1 + (x1 + p1^2)*x1^3*(p1^2 + 1)")
        assert (err.value.line, err.value.col) == (1, 23)
