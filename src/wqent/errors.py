"""Exception types and the default tolerance shared across the package; no numpy."""

# The default tol of every decision the noise rule, linalg._within_noise, judges: Hermiticity, semidefiniteness,
# a state's trace, projector idempotency, `degenerate`, off-support mass, both verdicts and the qutrit cross-check.
DEFAULT_TOL = 1e-10


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
