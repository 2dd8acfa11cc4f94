"""Expression language: parsing, lowering, rendering, error reporting."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadladder import cli
from quadladder.bateman import build_hd
from quadladder.adjoint import validate_quadratic
from quadladder.dsl import (
    _ALIASES,
    _NUMBERED,
    _TOKEN,
    MAX_MODES,
    MAX_NESTING,
    MAX_PRODUCT_TERMS,
    MAX_TERM_DEGREE,
    ExprTerm,
    HamiltonianExpr,
    _check_no_mixing,
    _mode_index,
    infer_num_modes,
    lower,
    parse_hamiltonian,
    parse_to_polynomial,
    render,
)
from quadladder.errors import (
    AliasConflictError,
    NotHermitianError,
    NotQuadraticError,
    ParseError,
)
from quadladder.weyl import (
    I,
    ONE,
    ComplexRational,
    WeylPolynomial,
    _add_term,
    _mono_product_terms,
    dagger,
    degree_decompose,
    is_hermitian,
    word_text,
)


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
        with pytest.raises(ParseError, match=r"'x111111\.\.\. \(5001 characters\)' exceeds"):
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


class TestTokenPositions:
    """Offsets become line:column only on error; only "\\n" starts a line."""

    @pytest.mark.parametrize("text,line,col", [
        ("x^\u00b2", 1, 3),
        ("x1^2 + p1^\u00b2", 1, 11),
        ("\u2460", 1, 1),
        ("2\u00b2", 1, 2),
        ("x1 + \u00bd", 1, 6),
    ])
    def test_non_decimal_digits_are_unexpected(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"{line}:{col}: unexpected character {text[col - 1]!r}"

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert parse_hamiltonian("\u0663*x1") == parse_hamiltonian("3*x1")

    @pytest.mark.parametrize("text,line,col", [
        ("x1 +\r\n  @", 2, 3),
        ("x1\r\n+\r\n@", 3, 1),
        ("x1 +\t\t@", 1, 7),
        ("x1 +\u2028@", 1, 6),
        ("x1\x0b+\r@", 1, 6),
        ("\n\n x1 + p1 @", 3, 10),
    ])
    def test_positions_across_blanks(self, text, line, col):
        with pytest.raises(ParseError, match="unexpected character '@'") as err:
            parse_hamiltonian(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text,line,col", [
        ("x1 +", 1, 5),
        ("x1 +   ", 1, 8),
        ("x1 +\n", 2, 1),
        ("x1 +\r\n\t", 2, 2),
        ("(x1", 1, 4),
        ("", 1, 1),
    ])
    def test_end_of_input_positions(self, text, line, col):
        with pytest.raises(ParseError, match="got end of input") as err:
            parse_hamiltonian(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_numeral_too_long_for_int(self):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian("x1 + 1/" + "7" * 5000)
        assert str(err.value) == "1:8: number has too many digits (5000)"

    def test_cli_refuses_a_superscript(self, capsys):
        assert cli.main(["--expr", "x1^2 + p1^\u00b2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [quadladder.dsl]: 1:11: unexpected character")


# ---------------------------------------------------------------------------
# Oracle: the character-by-character tokenizer and its parser, as they were
# before tokenizing became one regular expression.  Both must agree on every
# text without a character that is str.isdigit but not str.isdecimal.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OldToken:
    kind: str
    text: str
    line: int
    col: int


def _old_tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(_OldToken("number", text[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha():
            start = pos
            while pos < len(text) and text[pos].isalnum():
                pos += 1
            tokens.append(_OldToken("ident", text[start:pos], line, col))
            col += pos - start
            continue
        if ch in "+-*/^()":
            tokens.append(_OldToken(ch, ch, line, col))
            col += 1
            pos += 1
            continue
        raise ParseError(
            f"{line}:{col}: unexpected character {ch!r}", line, col, ())
    tokens.append(_OldToken("end", "", line, col))
    return tokens


def _old_error_at(tok, message, expected=()):
    return ParseError(f"{tok.line}:{tok.col}: {message}", tok.line, tok.col, expected)


def _old_int(token):
    try:
        return int(token.text)
    except ValueError:
        raise _old_error_at(
            token, f"number has too many digits ({len(token.text)})") from None


def _old_check_no_mixing(symbols):
    aliases = sorted(s for s in symbols if s in _ALIASES)
    numbered = sorted(s for s in symbols if _NUMBERED.match(s))
    if aliases and numbered:
        raise AliasConflictError(
            f"alias symbols {{{', '.join(aliases)}}} cannot be mixed with "
            f"numbered symbols {{{', '.join(numbered)}}} in one expression",
            1, 1, ())


class _OldParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        return _old_error_at(tok, f"expected {', '.join(expected)}; got {got}", expected)

    def parse_expr(self):
        terms = []
        sign = ONE
        if self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -ONE
        terms.extend(self._signed_term(sign))
        while self.peek().kind in ("+", "-"):
            sign = ONE if self.advance().kind == "+" else -ONE
            terms.extend(self._signed_term(sign))
        return terms

    def _signed_term(self, sign):
        return [ExprTerm(coeff=sign * t.coeff, factors=t.factors)
                for t in self.parse_term()]

    def parse_term(self):
        product, degree = self._bounded_factor(0)
        while self.peek().kind == "*":
            star = self.advance()
            rhs, degree = self._bounded_factor(degree)
            size = len(product) * len(rhs)
            if size > MAX_PRODUCT_TERMS:
                raise _old_error_at(star, f"product flattens to {size} terms; the "
                                          f"limit is {MAX_PRODUCT_TERMS}")
            product = [
                ExprTerm(coeff=a.coeff * b.coeff, factors=a.factors + b.factors)
                for a in product for b in rhs]
        return product

    def _bounded_factor(self, degree):
        tok = self.peek()
        factor = self.parse_factor()
        degree += max(sum(power for _, power in t.factors) for t in factor)
        if degree > MAX_TERM_DEGREE:
            raise _old_error_at(
                tok, f"term has degree {degree}; the limit is {MAX_TERM_DEGREE}")
        return factor, degree

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            numerator = _old_int(tok)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "number":
                    raise self.fail(("number",))
                self.advance()
                denominator = _old_int(den_tok)
                if denominator == 0:
                    raise _old_error_at(den_tok, "zero denominator")
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            return [ExprTerm(coeff=ComplexRational(value), factors=())]
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return [ExprTerm(coeff=I, factors=())]
            if not (tok.text in _ALIASES or _NUMBERED.match(tok.text)):
                raise _old_error_at(
                    tok, f"unknown symbol {tok.text!r}; expected one of x, y, px, "
                    "py or numbered x<N>, p<N> with N >= 1", ("symbol",))
            power = 1
            if self.peek().kind == "^":
                self.advance()
                ptok = self.peek()
                if ptok.kind != "number":
                    raise self.fail(("number",))
                self.advance()
                power = _old_int(ptok)
            return [ExprTerm(coeff=ONE, factors=((tok.text, power),))]
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            if self.peek().kind != ")":
                raise self.fail(("')'", "'+'", "'-'", "'*'"))
            self.advance()
            return inner
        raise self.fail(("number", "'i'", "symbol", "'('"))


def _old_parse_hamiltonian(text):
    parser = _OldParser(_old_tokenize(text))
    terms = parser.parse_expr()
    if parser.peek().kind != "end":
        raise parser.fail(("'+'", "'-'", "'*'", "end of input"))
    expr = HamiltonianExpr(terms=tuple(terms))
    _old_check_no_mixing(expr.symbols())
    return expr


def _outcome(parse, text):
    """The AST, or everything a caller can read off the error."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col, exc.expected


def _non_decimal_digit(text):
    return any(c.isdigit() and not c.isdecimal() for c in text)


# Grammar pieces and blanks of every kind, with stray characters and digits
# of other scripts a few times rarer; most texts are near-misses of input.
_GRAMMAR_PIECES = [
    "x", "y", "px", "py", "x1", "p1", "x2", "p2", "x17", "q1", "i",
    "0", "1", "2", "12", "007", "+", "-", "*", "/", "^", "(", ")",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\u2028",
]
_STRAY = ["\u0663", "\u00a0", "@", "_", "\u00bd", "\u00e9"]
_GRAMMAR_TEXT = st.lists(
    st.sampled_from(_GRAMMAR_PIECES * 4 + _STRAY), max_size=24).map("".join)
# Well-formed sums and products with blanks between the tokens: they keep the
# two parsers' ASTs, not only their errors, under comparison.
_BLANK = st.sampled_from(["", "", "", " ", "\t", "\n", "\r\n", "\u2028"])
_FACTOR = st.sampled_from([
    "1", "2", "3/4", "1/0", "i", "x1", "p1", "x2^2", "p2^0", "x3^7", "x", "px^2",
    "py", "x0", "\u0663"])
_EXPRESSIONS = st.recursive(_FACTOR, lambda inner: st.one_of(
    st.tuples(inner, _BLANK, st.sampled_from("+-*"), _BLANK, inner),
    st.tuples(st.just("("), _BLANK, inner, _BLANK, st.just(")")),
    st.tuples(st.sampled_from("+-"), inner)).map("".join), max_leaves=12)


class TestOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=st.text())
    def test_any_unicode_text(self, text):
        assume(not _non_decimal_digit(text))
        assert _outcome(parse_hamiltonian, text) == \
            _outcome(_old_parse_hamiltonian, text)

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(text=st.one_of(_GRAMMAR_TEXT, _EXPRESSIONS))
    def test_grammar_weighted_text(self, text):
        assert _outcome(parse_hamiltonian, text) == \
            _outcome(_old_parse_hamiltonian, text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(head=_GRAMMAR_TEXT, digit=st.sampled_from("\u00b2\u00b9\u2460\u2075"),
           tail=_GRAMMAR_TEXT)
    def test_non_decimal_digits_never_parse(self, head, digit, tail):
        with pytest.raises(ParseError):
            parse_hamiltonian(head + digit + tail)

    def test_large_corpus(self):
        for text in (TestRendering.CORPUS + [
                f"1/2*{TestSizeBounds.SUM32}*{TestSizeBounds.SUM32}",
                "*".join(["(x+y+px+py)"] * 10), "x^2 + p1^2",
                "x1 + 1/" + "7" * 5000]):
            assert _outcome(parse_hamiltonian, text) == \
                _outcome(_old_parse_hamiltonian, text)


class TestNestingBound:
    """Parentheses nest MAX_NESTING deep; one more is a positioned refusal."""

    def test_the_bound_parses(self):
        expr = parse_hamiltonian("(" * MAX_NESTING + "x1^2" + ")" * MAX_NESTING)
        assert expr == parse_hamiltonian("x1^2")

    def test_one_level_more_is_refused(self):
        text = "p1 + " + "(" * (MAX_NESTING + 1) + "x1^2" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_hamiltonian(text)
        col = 5 + MAX_NESTING + 1
        assert (err.value.line, err.value.col) == (1, col)
        assert str(err.value) == \
            f"1:{col}: parentheses nest deeper than {MAX_NESTING} levels"

    def test_cli_refuses_deep_nesting_in_one_line(self, capsys):
        depth = 10_000
        assert cli.main(["--expr", "(" * depth + "x1^2" + ")" * depth]) == 2
        err = capsys.readouterr().err
        assert err == (f"error [quadladder.dsl]: 1:{MAX_NESTING + 1}: parentheses "
                       f"nest deeper than {MAX_NESTING} levels\n")


class TestLongTokens:
    """An error quotes a token past 40 characters by its first 7 and length."""

    def test_unknown_long_symbol(self):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian("x1^2 + " + "q" * 5000)
        assert str(err.value).startswith(
            "1:8: unknown symbol 'qqqqqqq... (5000 characters)'; expected one of")
        assert len(str(err.value)) < 120

    def test_stray_long_number(self):
        with pytest.raises(ParseError) as err:
            parse_hamiltonian("x1^2 " + "7" * 3000)
        assert str(err.value) == ("1:6: expected '+', '-', '*', end of input; "
                                  "got '7777777... (3000 characters)'")

    def test_tokens_up_to_40_characters_are_quoted_whole(self):
        with pytest.raises(ParseError, match="unknown symbol '" + "q" * 40 + "'"):
            parse_hamiltonian("q" * 40)

    def test_cli_prints_one_short_line(self, capsys):
        assert cli.main(["--expr", "x1^2 + " + "q" * 5000]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 160


# ---------------------------------------------------------------------------
# Oracle: the parser, lower and is_hermitian as they were before coefficients
# became integer tuples, words with ordered factors skipped the reordering,
# and Hermiticity compared term maps.  Kept verbatim apart from names.
# ---------------------------------------------------------------------------

_PARENT_ALIASES = {"x": ("x", 1), "y": ("x", 2), "px": ("p", 1), "py": ("p", 2)}


def _parent_tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        word = match[0]
        if word.isdecimal():
            kind = "number"
        elif word[0].isalpha():
            kind = "ident"
        elif word in "+-*/^()":
            kind = word
        else:
            raise _parent_error_at(text, match.start(),
                                   f"unexpected character {word[0]!r}")
        tokens.append((kind, word, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _parent_error_at(text, offset, message, expected=()):
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(f"{line}:{col}: {message}", line, col, expected)


class _ParentParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _parent_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, tok, message, expected=()):
        return _parent_error_at(self.text, tok[2], message, expected)

    def fail(self, expected):
        kind, word, _ = tok = self.tokens[self.pos]
        got = "end of input" if kind == "end" else repr(word)
        return self.error(tok, f"expected {', '.join(expected)}; got {got}", expected)

    def number(self):
        if self.peek() != "number":
            raise self.fail(("number",))
        tok = self.advance()
        try:
            return int(tok[1])
        except ValueError:
            raise self.error(
                tok, f"number has too many digits ({len(tok[1])})") from None

    def parse_expr(self):
        terms = []
        sign = ONE
        if self.peek() in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -ONE
        terms.extend(self._signed_term(sign))
        while self.peek() in ("+", "-"):
            sign = ONE if self.advance()[0] == "+" else -ONE
            terms.extend(self._signed_term(sign))
        return terms

    def _signed_term(self, sign):
        return [ExprTerm(coeff=sign * t.coeff, factors=t.factors)
                for t in self.parse_term()]

    def parse_term(self):
        product, degree = self._bounded_factor(0)
        while self.peek() == "*":
            star = self.advance()
            rhs, degree = self._bounded_factor(degree)
            size = len(product) * len(rhs)
            if size > MAX_PRODUCT_TERMS:
                raise self.error(star, f"product flattens to {size} terms; the "
                                       f"limit is {MAX_PRODUCT_TERMS}")
            product = [
                ExprTerm(coeff=a.coeff * b.coeff, factors=a.factors + b.factors)
                for a in product
                for b in rhs
            ]
        return product

    def _bounded_factor(self, degree):
        tok = self.tokens[self.pos]
        factor = self.parse_factor()
        degree += max(sum(power for _, power in t.factors) for t in factor)
        if degree > MAX_TERM_DEGREE:
            raise self.error(
                tok, f"term has degree {degree}; the limit is {MAX_TERM_DEGREE}")
        return factor, degree

    def parse_factor(self):
        kind, word, _ = tok = self.tokens[self.pos]
        if kind == "number":
            value = Fraction(self.number())
            if self.peek() == "/":
                self.advance()
                den_tok = self.tokens[self.pos]
                denominator = self.number()
                if denominator == 0:
                    raise self.error(den_tok, "zero denominator")
                value /= denominator
            return [ExprTerm(coeff=ComplexRational(value), factors=())]
        if kind == "ident":
            self.advance()
            if word == "i":
                return [ExprTerm(coeff=I, factors=())]
            if word not in _PARENT_ALIASES and not _NUMBERED.match(word):
                raise self.error(tok, f"unknown symbol {word!r}; expected one of "
                                 "x, y, px, py or numbered x<N>, p<N> with N >= 1",
                                 ("symbol",))
            power = 1
            if self.peek() == "^":
                self.advance()
                power = self.number()
            return [ExprTerm(coeff=ONE, factors=((word, power),))]
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            if self.peek() != ")":
                raise self.fail(("')'", "'+'", "'-'", "'*'"))
            self.advance()
            return inner
        raise self.fail(("number", "'i'", "symbol", "'('"))


def _parent_parse_hamiltonian(text):
    parser = _ParentParser(text)
    terms = parser.parse_expr()
    if parser.peek() != "end":
        raise parser.fail(("'+'", "'-'", "'*'", "end of input"))
    expr = HamiltonianExpr(terms=tuple(terms))
    _check_no_mixing(expr.symbols())
    return expr


def _parent_infer_num_modes(expr):
    symbols = expr.symbols()
    _check_no_mixing(symbols)
    if any(s in _PARENT_ALIASES for s in symbols):
        return 2
    return max((_mode_index(s) for s in sorted(symbols)), default=1)


def _parent_lower(expr):
    num_modes = _parent_infer_num_modes(expr)
    unit = (0,) * (2 * num_modes)
    total = {}
    for term in expr.terms:
        word = {unit: term.coeff}
        for name, power in term.factors:
            kind, mode = _PARENT_ALIASES.get(name) or _NUMBERED.match(name).groups()
            flat = int(mode) - 1 + (num_modes if kind == "p" else 0)
            factor = unit[:flat] + (power,) + unit[flat + 1:]
            product = {}
            for exps, coeff in word.items():
                for key, w in _mono_product_terms(exps, factor, num_modes):
                    _add_term(product, key, coeff if w is ONE else coeff * w)
            word = product
        for exps, coeff in word.items():
            _add_term(total, exps, coeff)
    return WeylPolynomial(num_modes, total)


def _parent_dagger(a):
    num_modes = a.num_modes
    acc = {}
    zeros = (0,) * num_modes
    for mono, coeff in a.terms.items():
        cc = coeff.conjugate()
        x_part = mono[:num_modes]
        p_part = mono[num_modes:]
        for exps, w in _mono_product_terms(zeros + p_part, x_part + zeros, num_modes):
            _add_term(acc, exps, cc if w is ONE else cc * w)
    return WeylPolynomial(num_modes, acc)


def _parent_is_hermitian(a):
    return a == _parent_dagger(a)


def _front_end(parse, lower_, hermitian, text):
    """AST, polynomial (terms in order) and Hermiticity, or the first error."""
    try:
        expr = parse(text)
        poly = lower_(expr)
        return expr, poly.num_modes, list(poly.terms.items()), hermitian(poly)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col, exc.expected


# Words that reorder (p before x of one mode), that only commute, i and zero
# coefficients, parenthesized sums, and factors that break the degree or
# product-size bounds in longer products.
_ORACLE_FACTOR = st.sampled_from([
    "0", "1", "3/4", "0/7", "1/0", "i", "x1", "p1", "x2", "p2^2", "x1^0", "p1^0",
    "p1*x1", "x1*p1*x1", "p1^2*x1^2", "p2*x1*p1", "x2*p2^2*x2", "x", "px*x",
    "py^2*y", "x17", "q1", "x1^7", "(x1 + p1 + x2 + p2)", "(1 + i)", "(i*p1 - x1)",
    "(0*x1 + p2)", "(1 + x1 + p1 + x2 + p2 + i + 2 + 3/4)"])
_ORACLE_TEXT = st.recursive(_ORACLE_FACTOR, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from([" + ", " - ", "*", "*"]), inner),
    st.tuples(st.just("("), inner, st.just(")")),
    st.tuples(st.sampled_from(["-", "+", ""]), inner)).map("".join), max_leaves=10)


class TestParentOracle:
    NEW = (parse_hamiltonian, lower, is_hermitian)
    PARENT = (_parent_parse_hamiltonian, _parent_lower, _parent_is_hermitian)

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(text=_ORACLE_TEXT)
    def test_expressions(self, text):
        assert _front_end(*self.NEW, text) == _front_end(*self.PARENT, text)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(text=_GRAMMAR_TEXT)
    def test_near_misses(self, text):
        assert _front_end(*self.NEW, text) == _front_end(*self.PARENT, text)

    @pytest.mark.parametrize("text", [
        "p1*x1", "x1*p1*x1", "p1^2*x1^2", "p1*x1 + x1*p1", "i*(p1*x1 - x1*p1)",
        "0*p1*x1", "-(p1 + x1)*(x1 - p1)", "2*p2*x1*p1*x2",
        "*".join(["(x+y+px+py)"] * 5), "*".join(["(x+y+px+py)"] * 6),
        "(x1 + p1)*x1^3*(p1^2 + 1)", "x1*x1*x1*p1*p1*p1*x1",
        f"1/2*{TestSizeBounds.SUM32}*{TestSizeBounds.SUM32}",
        "(" * MAX_NESTING + "p1*x1" + ")" * MAX_NESTING,
    ])
    def test_corpus(self, text):
        assert _front_end(*self.NEW, text) == _front_end(*self.PARENT, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_ORACLE_TEXT)
    def test_dagger_and_validation(self, text):
        try:
            poly = _parent_lower(_parent_parse_hamiltonian(text))
        except ParseError:
            return
        # the same map; dagger's terms need not come in the parent's order
        assert dagger(poly).terms == _parent_dagger(poly).terms
        assert _validation(validate_quadratic, poly) == \
            _validation(_parent_validate_quadratic, poly)


def _parent_validate_quadratic(op):
    parts = degree_decompose(op)
    bad = sorted(deg for deg in parts if deg not in (0, 2))
    if bad:
        offending = tuple(
            word_text(mono, op.num_modes)
            for deg in bad
            for mono, _ in parts[deg].sorted_terms()
        )
        raise NotQuadraticError(
            "operator has terms of degree "
            f"{', '.join(str(d) for d in bad)} (only 0 and 2 allowed): "
            + ", ".join(offending),
            offending,
        )
    if not _parent_is_hermitian(op):
        raise NotHermitianError("operator is not Hermitian: it differs from its dagger")
    return op, op.num_modes, op.constant_term()


def _validation(validate, op):
    try:
        ham = validate(op)
    except (NotQuadraticError, NotHermitianError) as exc:
        return type(exc), str(exc), getattr(exc, "offending", None)
    return ham if isinstance(ham, tuple) else (ham.op, ham.num_modes, ham.energy_offset)
