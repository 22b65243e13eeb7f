"""Weighted entropies, subadditivity checks, and a projective channel."""

from .errors import (
    ChannelUndefinedError,
    DimensionError,
    InvalidSimplexError,
    MatrixFileError,
    NegativeEigenvalueError,
    NotHermitianError,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    hermitian_eig,
    partial_trace,
    xlogx_matrix,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_ququart,
    embed_qutrit,
    haar_unitary,
    random_density,
    random_weight,
)
from .entropy import (
    qutrit_mutual_information_closed_form,
    weighted_entropy,
)
from .inequality import (
    AuditSummary,
    SubadditivityReport,
    ViolationRecord,
    WeightCondition,
    audit_random,
    check_subadditivity,
    qutrit_condition_gap,
    qutrit_weight_condition,
)
from .channel import (
    Projector,
    apply_projective_channel,
    basis_projector,
    channel_then_check,
)
from .sweeps import SweepGrid, grid_to_csv, sweep_probabilities, sweep_weights

__version__ = "0.1.0"
