"""Weighted entropies, subadditivity checks, and a projective channel.

Each public name is resolved from its submodule on first access (PEP 562)
and then kept in this namespace, so ``import wqent`` loads no submodule and
a later access is a plain attribute lookup.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "ChannelUndefinedError",
        "DimensionError",
        "InvalidSimplexError",
        "MatrixFileError",
        "NegativeEigenvalueError",
        "NotHermitianError",
        "ValidationError",
    ),
    "linalg": ("SpectralDecomposition", "hermitian_eig", "partial_trace", "xlogx_matrix"),
    "states": (
        "BipartiteState",
        "DensityMatrix",
        "QutritDiagonal",
        "WeightMatrix",
        "embed_ququart",
        "embed_qutrit",
        "haar_unitary",
        "random_density",
        "random_weight",
    ),
    "entropy": ("qutrit_mutual_information_closed_form", "weighted_entropy"),
    "inequality": (
        "AuditSummary",
        "SubadditivityReport",
        "ViolationRecord",
        "WeightCondition",
        "audit_random",
        "check_subadditivity",
        "qutrit_condition_gap",
        "qutrit_weight_condition",
    ),
    "channel": ("Projector", "apply_projective_channel", "basis_projector", "channel_then_check"),
    "sweeps": ("SweepGrid", "grid_to_csv", "sweep_probabilities", "sweep_weights"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
