"""Nonlinear projective channel ``rho -> P rho P / tr(P rho P)``."""

from __future__ import annotations

import numpy as np

from .errors import ChannelUndefinedError, DimensionError, ValidationError
from .linalg import DEFAULT_TOL, SUPPORT_EPS, _within_noise
from .states import BipartiteState, DensityMatrix, WeightMatrix, _validated
from .inequality import SubadditivityReport, check_subadditivity


class Projector:
    """Hermitian idempotent, validated on construction; stores the Hermitian part of its input."""

    __slots__ = ("matrix", "rank")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a = _validated(matrix, tol, "projector")
        # P^2 of finite entries can overflow: an inf or NaN residual fails the noise rule
        with np.errstate(over="ignore", invalid="ignore"):
            idem = float(np.abs(a @ a - a).max())
        if not _within_noise(idem, 1.0, tol):
            raise ValidationError(f"projector is not idempotent (max |P^2 - P| = {idem:.3e})")
        # the trace of a Hermitian idempotent is its rank
        self.rank = round(float(np.trace(a).real))
        self.matrix = a

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


def basis_projector(dim: int, indices) -> Projector:
    """Projector onto the span of the given computational basis states."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValidationError(f"basis indices must be distinct, got {idx}")
    if any(i < 0 or i >= dim for i in idx):
        raise ValidationError(f"basis indices must lie in [0, {dim}), got {idx}")
    d = np.zeros(dim, dtype=complex)
    d[idx] = 1.0
    return Projector(np.diag(d))


def apply_projective_channel(projector: Projector, rho: DensityMatrix) -> DensityMatrix:
    """``P rho P / tr(P rho P)``, validated at ``rho.tol``; undefined when the overlap trace vanishes."""
    if projector.dim != rho.dim:
        raise DimensionError(f"projector dim {projector.dim} does not match state dim {rho.dim}")
    prp = projector.matrix @ rho.matrix @ projector.matrix
    overlap = float(np.trace(prp).real)
    if overlap <= SUPPORT_EPS:
        raise ChannelUndefinedError(f"channel undefined: overlap trace {overlap:.3e} vanishes")
    try:
        return DensityMatrix(prp / overlap, rho.tol)
    except ValidationError as exc:
        # valid input fails here only through rounding that 1 / overlap amplifies: name the output and
        # that overlap, not "state"
        raise type(exc)(f"channel output at overlap trace {overlap:.3e} {str(exc).removeprefix('state ')}") from exc


def channel_then_check(
    projector: Projector,
    weight_a: WeightMatrix,
    weight_b: WeightMatrix,
    state: BipartiteState,
) -> tuple[DensityMatrix, SubadditivityReport]:
    """Push the state through the channel, then re-run the subadditivity check at the state's ``tol``."""
    rho_out = apply_projective_channel(projector, state.rho)
    state_out = BipartiteState(rho_out, state.dim_a, state.dim_b)
    return rho_out, check_subadditivity(weight_a, weight_b, state_out)
