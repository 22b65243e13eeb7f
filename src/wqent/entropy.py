"""Weighted entropies in nats.

The weighted entropy of a state rho under a weight phi is
``-tr(phi rho ln rho)``; at phi = identity it is the von Neumann entropy.
Subsystem entropies never isolate a reduced weight on its own: only the
product ``psi_X rho_X = tr_other(phi_AB rho_AB)`` is well defined when the
reduction of rho is singular, so that product is what gets evaluated.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidSimplexError, ValidationError
from .linalg import (
    SUPPORT_EPS,
    Subsystem,
    hermitian_eig,
    partial_trace,
    xlogx_matrix,
)
from .states import SIMPLEX_TOL, BipartiteState, DensityMatrix, WeightMatrix, product_weight

IMAG_TOL = 1e-10
OFF_SUPPORT_TOL = 1e-10

_LOG_FLOOR = np.finfo(float).tiny


def weighted_entropy(phi: WeightMatrix, rho: DensityMatrix, im_tol: float = IMAG_TOL) -> float:
    """``-tr(phi rho ln rho)`` with the 0 ln 0 = 0 convention.

    Evaluated on the spectrum ``rho`` was validated with; eigenvalues at or
    below 1e-12 count as zero.
    """
    if phi.dim != rho.dim:
        raise DimensionError(f"weight dim {phi.dim} does not match state dim {rho.dim}")
    t = complex(np.einsum("ij,ji->", phi.matrix, xlogx_matrix(rho.spectrum)))
    if abs(t.imag) > im_tol:
        raise ValidationError(f"entropy trace has imaginary part {t.imag:.3e}")
    return -t.real


def reduced_weighted_state(phi_ab: WeightMatrix, state: BipartiteState, keep: Subsystem) -> np.ndarray:
    """Partial trace of ``phi_AB rho_AB`` over the discarded factor."""
    if phi_ab.dim != state.dim:
        raise DimensionError(f"weight dim {phi_ab.dim} does not match state dim {state.dim}")
    return partial_trace(phi_ab.matrix @ state.rho.matrix, state.dim_a, state.dim_b, keep)


def subsystem_weighted_entropy(
    phi_ab: WeightMatrix,
    state: BipartiteState,
    keep: Subsystem,
    im_tol: float = IMAG_TOL,
) -> float:
    """``-tr(tr_other(phi_AB rho_AB) ln rho_kept)`` on the support of rho_kept.

    The log is taken only on eigenvalues of the reduced state above 1e-12.
    Off-support mass of the reduced weighted state must vanish (it does
    exactly whenever rho_AB annihilates the kernel of its reduction); more
    than 1e-10 of it is an error. Outside the commuting setting the trace
    can pick up a genuine imaginary part, rejected beyond ``im_tol``.
    """
    x = reduced_weighted_state(phi_ab, state, keep)
    rho_kept = partial_trace(state.rho.matrix, state.dim_a, state.dim_b, keep)
    lams, u = hermitian_eig(rho_kept)
    y = u.conj().T @ x @ u
    on = lams > SUPPORT_EPS
    if not on.all():
        off = ~on
        leak = float(np.abs(y[np.ix_(off, off)]).max())
        if leak > OFF_SUPPORT_TOL:
            raise ValidationError(
                f"reduced weighted state has {leak:.3e} of mass outside the support "
                "of the reduced state"
            )
    log_lams = np.where(on, np.log(np.where(on, lams, 1.0)), 0.0)
    t = complex(np.einsum("ii,i->", y, log_lams))
    if abs(t.imag) > im_tol:
        raise ValidationError(f"subsystem entropy trace has imaginary part {t.imag:.3e}")
    return -t.real


def weighted_mutual_information(
    weight_a: WeightMatrix,
    weight_b: WeightMatrix,
    state: BipartiteState,
    im_tol: float = IMAG_TOL,
) -> float:
    """Subsystem entropies minus the joint entropy under a product weight."""
    phi_ab = product_weight(weight_a, weight_b)
    s_a = subsystem_weighted_entropy(phi_ab, state, "A", im_tol=im_tol)
    s_b = subsystem_weighted_entropy(phi_ab, state, "B", im_tol=im_tol)
    s_ab = weighted_entropy(phi_ab, state.rho, im_tol=im_tol)
    return s_a + s_b - s_ab


def qutrit_mutual_information_closed_form(p1, p2, phi1, phi2, chi1, chi2):
    """Closed form of the mutual information for an embedded diagonal qutrit.

    Accepts scalars or broadcastable arrays. Each of the three terms is
    dropped exactly when its probability factor is at or below 1e-12, which
    matches the support conventions of the matrix path. Weights must be
    nonnegative; zero weights are allowed so region boundaries evaluate.
    """
    p1v, p2v, f1, f2, c1, c2 = (
        np.asarray(x, dtype=float) for x in (p1, p2, phi1, phi2, chi1, chi2)
    )
    if (
        np.any(p1v < -SIMPLEX_TOL)
        or np.any(p2v < -SIMPLEX_TOL)
        or np.any(p1v + p2v > 1.0 + SIMPLEX_TOL)
    ):
        raise InvalidSimplexError("need p1 >= 0, p2 >= 0 and p1 + p2 <= 1")
    if np.any(f1 < 0.0) or np.any(f2 < 0.0) or np.any(c1 < 0.0) or np.any(c2 < 0.0):
        raise ValidationError("weights must be nonnegative")
    p3 = 1.0 - p1v - p2v
    a1 = p1v + p2v
    b1 = p1v + p3
    safe_p1 = np.where(p1v > SUPPORT_EPS, p1v, 1.0)
    t1 = np.where(
        p1v > SUPPORT_EPS,
        f1 * c1 * p1v * np.log(np.maximum(a1 * b1 / safe_p1, _LOG_FLOOR)),
        0.0,
    )
    t2 = np.where(p2v > SUPPORT_EPS, f1 * c2 * p2v * np.log(np.maximum(a1, _LOG_FLOOR)), 0.0)
    t3 = np.where(p3 > SUPPORT_EPS, f2 * c1 * p3 * np.log(np.maximum(b1, _LOG_FLOOR)), 0.0)
    # 0.0 - x instead of -x: an all-zero sum comes back as +0.0, not -0.0
    out = 0.0 - (t1 + t2 + t3)
    if out.ndim == 0:
        return float(out)
    return out
