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
    """A matrix file failed to parse; the message names the row and column when it can."""
