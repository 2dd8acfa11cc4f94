"""Exception types shared across the package, and how a message quotes input.

Two broad families matter to callers: validation errors (bad input that a
user can fix) and numeric failures (an iteration or tolerance check that did
not meet its target).  The CLI maps the former to exit code 2 and the latter
to exit code 3.
"""


def abbreviated(text: str) -> str:
    """text, or past 40 characters its first 7 and its length, as errors quote it."""
    return text if len(text) <= 40 else f"{text[:7]}... ({len(text)} characters)"


class QuadladderError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QuadladderError):
    """Input rejected before any numerical work started."""


class DimensionMismatchError(ValidationError):
    """Operands declare different mode counts or matrix dimensions."""


class NotQuadraticError(ValidationError):
    """Operator has terms outside degrees 0 and 2.

    Attributes:
        offending: tuple of text renderings of the offending monomials.
    """

    def __init__(self, message: str, offending: tuple[str, ...] = ()):
        super().__init__(message)
        self.offending = offending


class NotHermitianError(ValidationError):
    """Operator is not equal to its own dagger."""


class DefectiveSpectrumError(ValidationError):
    """A frequency has fewer eigenvectors than its algebraic multiplicity.

    Ladder construction is only defined for diagonalizable adjoint matrices;
    callers hitting this should inspect the spectral result they passed in.
    """


class ParseError(ValidationError):
    """Expression text rejected by the tokenizer or parser.

    Attributes:
        line: 1-based line of the offending token.
        col: 1-based column of the offending token.
        expected: tuple of token descriptions that would have been accepted.
    """

    def __init__(self, message: str, line: int = 1, col: int = 1,
                 expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected


class AliasConflictError(ParseError):
    """Two-mode alias symbols mixed with numbered symbols in one expression."""


class DivergentInputError(ValidationError):
    """A function that must be square integrable is not."""


class NumericFailureError(QuadladderError):
    """An iteration failed to converge or a residual exceeded its bound.

    Attributes:
        residuals: tuple of floats describing how badly the check failed.
    """

    def __init__(self, message: str, residuals: tuple[float, ...] = ()):
        super().__init__(message)
        self.residuals = residuals


class VerificationError(NumericFailureError):
    """A result failed its internal consistency re-check.

    Raised when a quantity that should satisfy an identity (for example a
    ladder operator satisfying its commutation relation) does not, which
    indicates numerical trouble rather than bad user input.
    """
