"""Weighted entropies in nats.

The weighted entropy of a state rho under a weight phi is
``-tr(phi rho ln rho)``; at phi = identity it is the von Neumann entropy.
Subsystem entropies never isolate a reduced weight on its own: only the
product ``psi_X rho_X = tr_other(phi_AB rho_AB)`` is well defined when the
reduction of rho is singular, so that product is what gets evaluated. Each
formula is written once, as a kernel over ``(..., d, d)`` stacks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import SUPPORT_EPS, SpectralDecomposition, Subsystem, _dagger, _ln_support, _trace_product
from .linalg import hermitian_eig, partial_trace, xlogx_matrix
from .states import BipartiteState, DensityMatrix, WeightMatrix, _simplex_pair, product_weight

IMAG_TOL = 1e-10


def _real_part(t: np.ndarray, im_tol: float, what: str) -> np.ndarray:
    """``t.real``, once no item's imaginary part exceeds ``im_tol``."""
    im = abs(t.imag)
    if (im > im_tol).any():
        raise ValidationError(f"{what} has imaginary part {t.imag.flat[im.argmax()]:.3e}")
    return t.real


def _joint_entropy(phi: np.ndarray, spectrum: SpectralDecomposition, im_tol: float) -> np.ndarray:
    """``-tr(phi rho ln rho)`` from the spectrum of rho, item by item."""
    return -_real_part(_trace_product(phi, xlogx_matrix(spectrum)), im_tol, "entropy trace")


def _subsystem_entropy(x: np.ndarray, rho_kept: np.ndarray, leak_tol: float, im_tol: float) -> np.ndarray:
    """``-tr(x ln rho_kept)`` on the support of ``rho_kept``, ``x`` leaking at most ``leak_tol`` off it."""
    lams, u = hermitian_eig(rho_kept, leak_tol)
    y = _dagger(u) @ x @ u
    off = lams <= SUPPORT_EPS
    if off.any():
        leak = float(np.abs(y[off[..., :, None] & off[..., None, :]]).max())
        if leak > leak_tol:
            raise ValidationError(f"reduced weighted state has {leak:.3e} of mass outside the support "
                                  "of the reduced state")
    t = np.einsum("...ii,...i->...", y, _ln_support(lams))
    return -_real_part(t, im_tol, "subsystem entropy trace")


def weighted_entropy(phi: WeightMatrix, rho: DensityMatrix, im_tol: float = IMAG_TOL) -> float:
    """``-tr(phi rho ln rho)`` with the 0 ln 0 = 0 convention.

    Evaluated on the spectrum ``rho`` was validated with; eigenvalues at or
    below 1e-12 count as zero.
    """
    if phi.dim != rho.dim:
        raise DimensionError(f"weight dim {phi.dim} does not match state dim {rho.dim}")
    return float(_joint_entropy(phi.matrix, rho.spectrum, im_tol))


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
    than the state's own ``tol`` is an error. Outside the commuting setting
    the trace can pick up a genuine imaginary part, rejected beyond ``im_tol``.
    """
    x = reduced_weighted_state(phi_ab, state, keep)
    rho_kept = partial_trace(state.rho.matrix, state.dim_a, state.dim_b, keep)
    return float(_subsystem_entropy(x, rho_kept, state.rho.tol, im_tol))


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

    Accepts scalars or broadcastable arrays. Each log is taken on the support
    (above 1e-12) of its argument, as the matrix path takes it on reduced
    eigenvalues; ``1 / p1`` applies only where ``p1`` is on the support.
    Weights must be nonnegative; zero weights let region boundaries evaluate.
    """
    p1v, p2v = _simplex_pair(p1, p2)
    f1, f2, c1, c2 = (np.asarray(x, dtype=float) for x in (phi1, phi2, chi1, chi2))
    if (np.minimum(np.minimum(f1, f2), np.minimum(c1, c2)) < 0.0).any():
        raise ValidationError("weights must be nonnegative")
    p3 = 1.0 - p1v - p2v
    a1 = p1v + p2v
    b1 = p1v + p3
    safe_p1 = np.where(p1v > SUPPORT_EPS, p1v, 1.0)
    t1 = f1 * c1 * p1v * _ln_support(a1 * b1 / safe_p1)
    t2 = f1 * c2 * p2v * _ln_support(a1)
    t3 = f2 * c1 * p3 * _ln_support(b1)
    # 0.0 - x instead of -x: an all-zero sum comes back as +0.0, not -0.0
    out = 0.0 - (t1 + t2 + t3)
    return float(out) if out.ndim == 0 else out
