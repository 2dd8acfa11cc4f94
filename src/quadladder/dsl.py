"""Plain-text Hamiltonian expressions.

Grammar (whitespace-insensitive; no implicit multiplication):

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := number | "i" | symbol ("^" uint)? | "(" expr ")"
    number := uint | uint "/" uint

Symbols are either the two-mode aliases x, y, px, py or the numbered forms
x<N>, p<N> with 1 <= N <= MAX_MODES; mixing the two styles in one expression
is an error that names the clashing symbols.  Powers attach to symbols only.

Parsing produces a flat sum-of-products AST: products are flattened left to
right, parenthesized sums are distributed, and like terms are never merged,
so the AST is a faithful record of the expression's term structure.  Every
flattened coefficient is purely real or purely imaginary by construction.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import AliasConflictError, ParseError
from .weyl import (
    BasisIndex,
    ComplexRational,
    ONE,
    I,
    WeylPolynomial,
    render_terms,
)

__all__ = [
    "ExprTerm",
    "HamiltonianExpr",
    "parse_hamiltonian",
    "infer_num_modes",
    "lower",
    "render",
    "parse_to_polynomial",
]

# Largest mode index a numbered symbol may carry; the 2K x 2K adjoint matrix
# and its exact char-poly take about 2 s at K = 16.
MAX_MODES = 16
# Degree of one flattened term and terms one product flattens to: they admit a
# K = 16 quadratic form written as a 32-symbol sum squared; the costliest
# admitted product (that form times p1*x1*p2*x2) lowers in 2.3 s (2-core VM).
MAX_TERM_DEGREE = 6
MAX_PRODUCT_TERMS = 1024

_ALIASES = {"x": ("x", 1), "y": ("x", 2), "px": ("p", 1), "py": ("p", 2)}
_NUMBERED = re.compile(r"^([xp])([1-9][0-9]*)$")

_TOKEN_NAMES = {
    "+": "'+'", "-": "'-'", "*": "'*'", "/": "'/'",
    "^": "'^'", "(": "'('", ")": "')'",
}


@dataclass(frozen=True)
class _Token:
    kind: str          # "number", "ident", one of +-*/^() or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("number", text[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha():
            start = pos
            while pos < len(text) and text[pos].isalnum():
                pos += 1
            tokens.append(_Token("ident", text[start:pos], line, col))
            col += pos - start
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            pos += 1
            continue
        raise ParseError(
            f"{line}:{col}: unexpected character {ch!r}", line, col, ())
    tokens.append(_Token("end", "", line, col))
    return tokens


def _error_at(tok: _Token, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError whose message starts with tok's line:column."""
    return ParseError(f"{tok.line}:{tok.col}: {message}", tok.line, tok.col, expected)


@dataclass(frozen=True)
class ExprTerm:
    """One flattened product: a scalar times an ordered word of symbol powers."""

    coeff: ComplexRational
    factors: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class HamiltonianExpr:
    """Flat sum of terms, in source order."""

    terms: tuple[ExprTerm, ...]

    def symbols(self) -> set[str]:
        return {name for term in self.terms for name, _ in term.factors}


def _int(token: _Token) -> int:
    try:
        return int(token.text)
    except ValueError:   # more digits than the interpreter converts
        raise _error_at(
            token, f"number has too many digits ({len(token.text)})") from None


def _validate_symbol(name: str, token: _Token) -> None:
    if name in _ALIASES or _NUMBERED.match(name):
        return
    raise _error_at(token, f"unknown symbol {name!r}; expected one of x, y, px, "
                    "py or numbered x<N>, p<N> with N >= 1", ("symbol",))


def _check_no_mixing(symbols: set[str], line: int = 1, col: int = 1) -> None:
    aliases = sorted(s for s in symbols if s in _ALIASES)
    numbered = sorted(s for s in symbols if _NUMBERED.match(s))
    if aliases and numbered:
        raise AliasConflictError(
            f"alias symbols {{{', '.join(aliases)}}} cannot be mixed with "
            f"numbered symbols {{{', '.join(numbered)}}} in one expression",
            line, col, ())


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        names = ", ".join(expected)
        return _error_at(tok, f"expected {names}; got {got}", expected)

    def parse_expr(self) -> list[ExprTerm]:
        terms: list[ExprTerm] = []
        sign = ONE
        if self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -ONE
        terms.extend(self._signed_term(sign))
        while self.peek().kind in ("+", "-"):
            sign = ONE if self.advance().kind == "+" else -ONE
            terms.extend(self._signed_term(sign))
        return terms

    def _signed_term(self, sign: ComplexRational) -> list[ExprTerm]:
        return [
            ExprTerm(coeff=sign * t.coeff, factors=t.factors)
            for t in self.parse_term()
        ]

    def parse_term(self) -> list[ExprTerm]:
        product, degree = self._bounded_factor(0)
        while self.peek().kind == "*":
            star = self.advance()
            rhs, degree = self._bounded_factor(degree)
            size = len(product) * len(rhs)
            if size > MAX_PRODUCT_TERMS:
                raise _error_at(star, f"product flattens to {size} terms; the "
                                      f"limit is {MAX_PRODUCT_TERMS}")
            product = [
                ExprTerm(coeff=a.coeff * b.coeff, factors=a.factors + b.factors)
                for a in product
                for b in rhs
            ]
        return product

    def _bounded_factor(self, degree: int) -> tuple[list[ExprTerm], int]:
        """The next factor and the term degree, refused above MAX_TERM_DEGREE."""
        tok = self.peek()
        factor = self.parse_factor()
        degree += max(sum(power for _, power in t.factors) for t in factor)
        if degree > MAX_TERM_DEGREE:
            raise _error_at(
                tok, f"term has degree {degree}; the limit is {MAX_TERM_DEGREE}")
        return factor, degree

    def parse_factor(self) -> list[ExprTerm]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            numerator = _int(tok)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "number":
                    raise self.fail(("number",))
                self.advance()
                denominator = _int(den_tok)
                if denominator == 0:
                    raise _error_at(den_tok, "zero denominator")
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            return [ExprTerm(coeff=ComplexRational(value), factors=())]
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return [ExprTerm(coeff=I, factors=())]
            _validate_symbol(tok.text, tok)
            power = 1
            if self.peek().kind == "^":
                self.advance()
                ptok = self.peek()
                if ptok.kind != "number":
                    raise self.fail(("number",))
                self.advance()
                power = _int(ptok)
            return [ExprTerm(coeff=ONE, factors=((tok.text, power),))]
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            if self.peek().kind != ")":
                raise self.fail(("')'", "'+'", "'-'", "'*'"))
            self.advance()
            return inner
        raise self.fail(("number", "'i'", "symbol", "'('"))


def parse_hamiltonian(text: str) -> HamiltonianExpr:
    """Parse expression text to its flat AST.

    Raises ParseError (with 1-based line/column and the expected-token set)
    on malformed input, and AliasConflictError when alias and numbered
    symbol styles are mixed.
    """
    parser = _Parser(_tokenize(text))
    terms = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail(("'+'", "'-'", "'*'", "end of input"))
    expr = HamiltonianExpr(terms=tuple(terms))
    _check_no_mixing(expr.symbols())
    return expr


def _mode_index(symbol: str) -> int:
    """Index N of a numbered symbol x<N>/p<N>, refused above MAX_MODES.

    The digit count is checked first, so an index too long for ``int`` is
    refused the same way.
    """
    digits = _NUMBERED.match(symbol).group(2)
    if len(digits) > len(str(MAX_MODES)) or int(digits) > MAX_MODES:
        shown = symbol if len(digits) <= 12 else \
            f"{symbol[:7]}... ({len(digits)} digits)"
        raise ParseError(
            f"symbol {shown!r} exceeds the limit of {MAX_MODES} modes")
    return int(digits)


def infer_num_modes(expr: HamiltonianExpr) -> int:
    """Mode count: 2 for alias style, the largest index for numbered style,
    and 1 for constant expressions with no symbols at all.

    Raises ParseError for a mode index above MAX_MODES.
    """
    symbols = expr.symbols()
    _check_no_mixing(symbols)
    if any(s in _ALIASES for s in symbols):
        return 2
    return max((_mode_index(s) for s in sorted(symbols)), default=1)


def lower(expr: HamiltonianExpr) -> WeylPolynomial:
    """Evaluate the AST to a normal-ordered operator polynomial.

    Factors multiply in source order, so noncommuting products mean exactly
    what the expression wrote.
    """
    num_modes = infer_num_modes(expr)
    total = WeylPolynomial.zero(num_modes)
    for term in expr.terms:
        acc = WeylPolynomial.constant(term.coeff, num_modes)
        for name, power in term.factors:
            kind, mode = _ALIASES.get(name) or _NUMBERED.match(name).groups()
            base = WeylPolynomial.basis_element(
                BasisIndex(kind, int(mode)), num_modes)
            for _ in range(power):
                acc = acc * base
        total = total + acc
    return total


def render(expr: HamiltonianExpr) -> str:
    """Canonical text of an AST; parsing it back yields an identical AST.

    (Identical for parser-produced ASTs, whose coefficients are purely real
    or purely imaginary; hand-built mixed coefficients still render, but
    reparse as their distributed two-term form.)
    """
    return render_terms(
        (term.coeff, "*".join(name if power == 1 else f"{name}^{power}"
                              for name, power in term.factors))
        for term in expr.terms)


def parse_to_polynomial(text: str) -> WeylPolynomial:
    """Convenience: parse and lower in one step."""
    return lower(parse_hamiltonian(text))
