"""Plain-text Hamiltonian expressions.

Grammar (whitespace-insensitive; no implicit multiplication):

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := number | "i" | symbol ("^" uint)? | "(" expr ")"
    number := uint | uint "/" uint

Symbols are either the two-mode aliases x, y, px, py or the numbered forms
x<N>, p<N> with 1 <= N <= MAX_MODES; mixing the two styles in one expression
is an error that names the clashing symbols.  Powers attach to symbols only.
Parentheses nest at most MAX_NESTING deep.

One regular expression splits the text into tokens: runs of decimal digits
(str.isdecimal, so a superscript or circled digit is an unexpected
character), letter-led runs of letters and digits, and single operators.  A
token keeps its kind and text; an error scans again for its offset and
reports the 1-based line:column, where only a newline starts a line, and it
quotes a token past 40 characters by its first 7 and its length.

Parsing produces a flat sum-of-products AST: products are flattened left to
right, parenthesized sums are distributed, and like terms are never merged,
so the AST is a faithful record of the expression's term structure.  A
coefficient is carried as ints (a, b, d) for (a + b*i)/d and reduced once per
flattened term, which is purely real or purely imaginary by construction.
Lowering adds the exponents of a word in which no p_j stands left of an x_j
(its factors only commute into normal order) and reorders any other word.
"""

import re
from dataclasses import dataclass
from itertools import islice

from .errors import AliasConflictError, ParseError, abbreviated
from .weyl import (
    ComplexRational,
    ONE,
    WeylPolynomial,
    _add_term,
    _mono_product_terms,
    _reduced,
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
# nearest-neighbour chain runs end to end in 0.15 s (char-poly 5 ms), and a dense
# form with one-digit rational coefficients in 0.3 s (char-poly 28 ms).
MAX_MODES = 16
# Degree of one flattened term and terms one product flattens to: they admit a
# K = 16 quadratic form written as a 32-symbol sum squared; the costliest
# admitted product (that form times p1*x1*p2*x2) lowers in 0.36 s (2-core VM).
MAX_TERM_DEGREE = 6
MAX_PRODUCT_TERMS = 1024
# Depth of nested parentheses; the parser recurses twice per level.
MAX_NESTING = 100

_ALIASES = {"x": 0, "y": 1, "px": 2, "py": 3}   # index in the basis x, y, px, py
_NUMBERED = re.compile(r"^([xp])([1-9][0-9]*)$")

# One token per match: a run of decimal digits, a run of letters and digits,
# or any other non-blank character.  \d is str.isdecimal, \w is str.isalnum
# plus "_" and \s is str.isspace, so superscripts never start a number.
_TOKEN = re.compile(r"\d+|[^\W_]+|\S")


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """Each token's kind (number, ident or the operator) and text, closed by
    ("end", "")."""
    words = _TOKEN.findall(text)
    kinds = [word if word in "+-*/^()" else "number" if word.isdecimal()
             else "ident" if word[0].isalpha() else "" for word in words]
    if "" in kinds:
        index = kinds.index("")
        raise _error_at(text, index, f"unexpected character {words[index][0]!r}")
    return kinds + ["end"], words + [""]


def _error_at(text: str, index: int, message: str,
              expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError whose message starts with the line:column of token index
    (past the last token, the end of text)."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    offset = len(text) if match is None else match.start()
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
    """Recursive descent over the token lists, read by index.

    A product is a list of flat terms (a, b, d, factors): the coefficient
    (a + b*i)/d unreduced, with d > 0, and the word as (symbol, power) pairs.
    """

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.words = _tokenize(text)
        self.pos = 0

    def fail(self, index: int, expected: tuple[str, ...]) -> ParseError:
        word = self.words[index]
        got = repr(abbreviated(word)) if word else "end of input"
        return _error_at(self.text, index, f"expected {', '.join(expected)}; got {got}",
                         expected)

    def number(self, index: int) -> int:
        """Token index, which must be a number, as an int."""
        if self.kinds[index] != "number":
            raise self.fail(index, ("number",))
        word = self.words[index]
        try:
            return int(word)
        except ValueError:   # more digits than the interpreter converts
            raise _error_at(self.text, index,
                            f"number has too many digits ({len(word)})") from None

    def parse_expr(self, depth: int) -> tuple[list[tuple], int]:
        """The flat terms of a sum inside depth parentheses, and their largest
        degree."""
        terms, top, kind = [], 0, self.kinds[self.pos]
        while True:
            if kind in ("+", "-"):
                self.pos += 1
            product, degree = self.parse_term(depth)
            terms += [(-a, -b, d, w) for a, b, d, w in product] if kind == "-" else product
            top = max(top, degree)
            kind = self.kinds[self.pos]
            if kind not in ("+", "-"):
                return terms, top

    def parse_term(self, depth: int) -> tuple[list[tuple], int]:
        """The flat terms of a product and its degree, the sum of the largest
        degree of each factor.  The scalar factors gather in (a, b, d), the
        symbol powers in word; a parenthesized sum is multiplied out."""
        kinds, words, text = self.kinds, self.words, self.text
        pos, star = self.pos, None
        product, a, b, d, word, degree = [(1, 0, 1, ())], 1, 0, 1, [], 0
        while True:
            kind, start, size = kinds[pos], pos, len(product)
            pos += 1
            if kind == "number":
                a *= (n := self.number(start))
                b *= n
                if kinds[pos] == "/":
                    if not (n := self.number(pos + 1)):
                        raise _error_at(text, pos + 1, "zero denominator")
                    d *= n
                    pos += 2
            elif kind == "ident" and words[start] == "i":
                a, b = -b, a
            elif kind == "ident":
                name = words[start]
                if name not in _ALIASES and not _NUMBERED.match(name):
                    raise _error_at(
                        text, start, f"unknown symbol {abbreviated(name)!r}; expected "
                        "one of x, y, px, py or numbered x<N>, p<N> with N >= 1",
                        ("symbol",))
                power = 1
                if kinds[pos] == "^":
                    power = self.number(pos + 1)
                    pos += 2
                word.append((name, power))
                degree += power
            elif kind == "(":
                if depth == MAX_NESTING:
                    raise _error_at(
                        text, start, f"parentheses nest deeper than {MAX_NESTING} levels")
                self.pos = pos
                inner, inner_degree = self.parse_expr(depth + 1)
                if kinds[self.pos] != ")":
                    raise self.fail(self.pos, ("')'", "'+'", "'-'", "'*'"))
                pos = self.pos + 1
                degree += inner_degree
                size *= len(inner)
            else:
                raise self.fail(start, ("number", "'i'", "symbol", "'('"))
            if degree > MAX_TERM_DEGREE:
                raise _error_at(
                    text, start, f"term has degree {degree}; the limit is {MAX_TERM_DEGREE}")
            if star is not None and size > MAX_PRODUCT_TERMS:
                raise _error_at(text, star, f"product flattens to {size} terms; the "
                                            f"limit is {MAX_PRODUCT_TERMS}")
            if kind == "(":
                w = tuple(word)
                product = [(pa * qa - pb * qb, pa * qb + pb * qa, pd * qd, pw + w + qw)
                           for pa, pb, pd, pw in product for qa, qb, qd, qw in inner]
                word = []
            if kinds[pos] != "*":
                self.pos, w = pos, tuple(word)
                return [(pa * a - pb * b, pa * b + pb * a, pd * d, pw + w)
                        for pa, pb, pd, pw in product], degree
            star = pos
            pos += 1


def parse_hamiltonian(text: str) -> HamiltonianExpr:
    """Parse expression text to its flat AST.

    Raises ParseError (with 1-based line/column and the expected-token set)
    on malformed input, and AliasConflictError when alias and numbered
    symbol styles are mixed.
    """
    parser = _Parser(text)
    terms, _ = parser.parse_expr(0)
    if parser.kinds[parser.pos] != "end":
        raise parser.fail(parser.pos, ("'+'", "'-'", "'*'", "end of input"))
    expr = HamiltonianExpr(terms=tuple(
        ExprTerm(_reduced(a, b, d), word) for a, b, d, word in terms))
    _check_no_mixing(expr.symbols())
    return expr


def _mode_index(symbol: str) -> int:
    """Index N of a numbered symbol x<N>/p<N>, refused above MAX_MODES.

    The digit count is checked first, so an index too long for ``int`` is
    refused the same way.
    """
    digits = _NUMBERED.match(symbol).group(2)
    if len(digits) > len(str(MAX_MODES)) or int(digits) > MAX_MODES:
        raise ParseError(
            f"symbol {abbreviated(symbol)!r} exceeds the limit of {MAX_MODES} modes")
    return int(digits)


def _flat_indices(expr: HamiltonianExpr) -> tuple[int, dict[str, int]]:
    """Mode count and each symbol's index in the basis x1..xK, p1..pK; only
    an AST built by hand can mix styles here, since parsing refuses it."""
    symbols = expr.symbols()
    if not symbols.isdisjoint(_ALIASES):
        _check_no_mixing(symbols)
        return 2, {s: _ALIASES[s] for s in symbols}
    modes = {s: _mode_index(s) for s in sorted(symbols)}
    k = max(modes.values(), default=1)
    return k, {s: n - 1 + (k if s[0] == "p" else 0) for s, n in modes.items()}


def infer_num_modes(expr: HamiltonianExpr) -> int:
    """Mode count: 2 for alias style, the largest index for numbered style,
    and 1 for constant expressions with no symbols at all.

    Raises ParseError for a mode index above MAX_MODES.
    """
    return _flat_indices(expr)[0]


def lower(expr: HamiltonianExpr) -> WeylPolynomial:
    """Evaluate the AST to a normal-ordered operator polynomial.

    Factors multiply in source order, so noncommuting products mean exactly
    what the expression wrote.  A word in which no p_j stands left of an x_j
    is normal ordered up to commuting factors, and its exponents just add.
    """
    num_modes, flat_of = _flat_indices(expr)
    unit = (0,) * (2 * num_modes)
    total: dict = {}
    for term in expr.terms:
        exps = [0] * (2 * num_modes)
        for name, power in term.factors:
            flat = flat_of[name]
            if flat < num_modes and exps[flat + num_modes]:
                break
            exps[flat] += power
        else:
            _add_term(total, tuple(exps), term.coeff)
            continue
        word = {unit: term.coeff}
        for name, power in term.factors:
            flat = flat_of[name]
            factor = unit[:flat] + (power,) + unit[flat + 1:]
            product: dict = {}
            for exps, coeff in word.items():
                for key, w in _mono_product_terms(exps, factor, num_modes):
                    _add_term(product, key, coeff if w is ONE else coeff * w)
            word = product
        for exps, coeff in word.items():
            _add_term(total, exps, coeff)
    return WeylPolynomial._from_terms(num_modes, total)


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
