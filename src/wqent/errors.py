"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input failed one of its construction invariants."""


class NotHermitianError(ValidationError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NegativeEigenvalueError(ValidationError):
    """An eigenvalue sits below the negative-noise floor."""


class InvalidSimplexError(ValidationError):
    """A probability vector has a negative entry or the wrong sum."""


class DimensionError(ValueError):
    """Operands or declared dimensions do not match."""


class ChannelUndefinedError(ValueError):
    """The projective channel output is undefined for this input state."""


class MatrixFileError(ValueError):
    """A matrix file failed to parse.

    Carries the offending row/column position when one can be named.
    """

    def __init__(self, message: str, *, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
