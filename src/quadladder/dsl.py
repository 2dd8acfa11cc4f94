"""Plain-text Hamiltonian expressions.

Grammar (whitespace-insensitive; no implicit multiplication):

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := number | "i" | symbol ("^" uint)? | "(" expr ")"
    number := uint | uint "/" uint

Symbols are either the two-mode aliases x, y, px, py or the numbered forms
x<N>, p<N> with 1 <= N <= MAX_MODES; mixing the two styles in one expression
is an error that names the clashing symbols.  Powers attach to symbols only.

One regular expression splits the text into tokens: runs of decimal digits
(str.isdecimal, so a superscript or circled digit is an unexpected
character), letter-led runs of letters and digits, and single operators.  A
token keeps only its offset; an error's 1-based line:column is worked out
from that offset, and only a newline starts a line.

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
    ComplexRational,
    ONE,
    I,
    WeylPolynomial,
    _add_term,
    _mono_product_terms,
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

# Largest mode index a numbered symbol may carry.  At K = 16 (2-core VM) a
# nearest-neighbour chain runs end to end in 0.2 s (char-poly 1.2 ms), and a dense
# form with one-digit rational coefficients in 0.8 s (char-poly 70 ms).
MAX_MODES = 16
# Degree of one flattened term and terms one product flattens to: they admit a
# K = 16 quadratic form written as a 32-symbol sum squared; the costliest
# admitted product (that form times p1*x1*p2*x2) lowers in 0.36 s (2-core VM).
MAX_TERM_DEGREE = 6
MAX_PRODUCT_TERMS = 1024

_ALIASES = {"x": ("x", 1), "y": ("x", 2), "px": ("p", 1), "py": ("p", 2)}
_NUMBERED = re.compile(r"^([xp])([1-9][0-9]*)$")

# One token per match: a run of decimal digits, a run of letters and digits,
# or any other non-blank character.  \d is str.isdecimal, \w is str.isalnum
# plus "_" and \s is str.isspace, so superscripts never start a number.
_TOKEN = re.compile(r"\d+|[^\W_]+|\S")
_OPERATORS = frozenset("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, closed by ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN.finditer(text):
        word = match[0]
        if word.isdecimal():
            kind = "number"
        elif word[0].isalpha():
            kind = "ident"
        elif word in _OPERATORS:
            kind = word
        else:
            raise _error_at(text, match.start(), f"unexpected character {word[0]!r}")
        tokens.append((kind, word, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _error_at(text: str, offset: int, message: str,
              expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError whose message starts with the line:column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(f"{line}:{col}: {message}", line, col, expected)


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


def _check_no_mixing(symbols: set[str]) -> None:
    aliases = sorted(s for s in symbols if s in _ALIASES)
    numbered = sorted(s for s in symbols if _NUMBERED.match(s))
    if aliases and numbered:
        raise AliasConflictError(
            f"alias symbols {{{', '.join(aliases)}}} cannot be mixed with "
            f"numbered symbols {{{', '.join(numbered)}}} in one expression")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """Kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, tok, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return _error_at(self.text, tok[2], message, expected)

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        kind, word, _ = tok = self.tokens[self.pos]
        got = "end of input" if kind == "end" else repr(word)
        return self.error(tok, f"expected {', '.join(expected)}; got {got}", expected)

    def number(self) -> int:
        """The next token, which must be a number, as an int."""
        if self.peek() != "number":
            raise self.fail(("number",))
        tok = self.advance()
        try:
            return int(tok[1])
        except ValueError:   # more digits than the interpreter converts
            raise self.error(
                tok, f"number has too many digits ({len(tok[1])})") from None

    def parse_expr(self) -> list[ExprTerm]:
        terms: list[ExprTerm] = []
        sign = ONE
        if self.peek() in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -ONE
        terms.extend(self._signed_term(sign))
        while self.peek() in ("+", "-"):
            sign = ONE if self.advance()[0] == "+" else -ONE
            terms.extend(self._signed_term(sign))
        return terms

    def _signed_term(self, sign: ComplexRational) -> list[ExprTerm]:
        return [
            ExprTerm(coeff=sign * t.coeff, factors=t.factors)
            for t in self.parse_term()
        ]

    def parse_term(self) -> list[ExprTerm]:
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

    def _bounded_factor(self, degree: int) -> tuple[list[ExprTerm], int]:
        """The next factor and the term degree, refused above MAX_TERM_DEGREE."""
        tok = self.tokens[self.pos]
        factor = self.parse_factor()
        degree += max(sum(power for _, power in t.factors) for t in factor)
        if degree > MAX_TERM_DEGREE:
            raise self.error(
                tok, f"term has degree {degree}; the limit is {MAX_TERM_DEGREE}")
        return factor, degree

    def parse_factor(self) -> list[ExprTerm]:
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
            if word not in _ALIASES and not _NUMBERED.match(word):
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


def parse_hamiltonian(text: str) -> HamiltonianExpr:
    """Parse expression text to its flat AST.

    Raises ParseError (with 1-based line/column and the expected-token set)
    on malformed input, and AliasConflictError when alias and numbered
    symbol styles are mixed.
    """
    parser = _Parser(text)
    terms = parser.parse_expr()
    if parser.peek() != "end":
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
    unit = (0,) * (2 * num_modes)
    total: dict = {}
    for term in expr.terms:
        word = {unit: term.coeff}
        for name, power in term.factors:
            kind, mode = _ALIASES.get(name) or _NUMBERED.match(name).groups()
            flat = int(mode) - 1 + (num_modes if kind == "p" else 0)
            factor = unit[:flat] + (power,) + unit[flat + 1:]
            product: dict = {}
            for exps, coeff in word.items():
                for key, w in _mono_product_terms(exps, factor, num_modes):
                    _add_term(product, key, coeff if w is ONE else coeff * w)
            word = product
        for exps, coeff in word.items():
            _add_term(total, exps, coeff)
    return WeylPolynomial(num_modes, total)


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
