"""Exception types, the default tolerance and the paper's figure parameters, shared across the package; no numpy."""

# The default tol of every decision the noise rule, linalg._within_noise, judges: Hermiticity, semidefiniteness,
# a state's trace, projector idempotency, `degenerate`, off-support mass, both verdicts and the qutrit cross-check.
DEFAULT_TOL = 1e-10

# The paper's qutrit figures: the weights (phi1, phi2, chi1, chi2) of the probability grid and the
# probabilities (p1, p2) of the weight grids. Here, with no numpy, they are the CLI's argparse defaults too.
PROB_SWEEP_WEIGHTS = (0.75, 0.25, 1.0 / 3.0, 2.0 / 3.0)
WEIGHT_SWEEP_PROBS = (0.25, 0.125)


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
