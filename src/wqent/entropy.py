"""Weighted entropies in nats.

The weighted entropy of a state rho under a weight phi is
``-tr(phi rho ln rho)``; at phi = identity it is the von Neumann entropy.
Subsystem entropies never isolate a reduced weight on its own: only the
product ``psi_X rho_X = tr_other(phi_AB rho_AB)`` is well defined when the
reduction of rho is singular, so that product is what gets evaluated.
Every entropy is the real part of its trace. The joint trace is one of two
Hermitian matrices, so it is real up to rounding; the real part of a
subsystem trace is the entropy of the symmetrised reduced weighted state
``tr_other((phi rho + rho phi) / 2)``, which is Hermitian. Each
formula is written once, as a kernel over ``(..., d, d)`` stacks; the report
engine in :mod:`wqent.inequality` is the one caller of the subsystem kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import SUPPORT_EPS, SpectralDecomposition, _dagger, _eigh, _ln_support, _trace_product
from .linalg import xlogx_matrix
from .states import DensityMatrix, WeightMatrix, _nonnegative_weights, _simplex


def _joint_entropy(phi: np.ndarray, spectrum: SpectralDecomposition) -> np.ndarray:
    """``-tr(phi rho ln rho)`` from the spectrum of rho, item by item; the real part of the trace."""
    return -_trace_product(phi, xlogx_matrix(spectrum)).real


def _subsystem_entropy(x: np.ndarray, rho_kept: np.ndarray, leak_tol: float) -> np.ndarray:
    """``-Re tr(x ln rho_kept)`` on the support of ``rho_kept``, ``x`` leaking at most ``leak_tol`` off it.

    ``rho_kept`` is a partial trace of a validated (exactly Hermitian) state, so it is
    exactly Hermitian too and is diagonalized without a second check.
    """
    lams, u = _eigh(rho_kept)
    y = _dagger(u) @ x @ u
    off = lams <= SUPPORT_EPS
    if off.any():
        leak = float(np.abs(y[off[..., :, None] & off[..., None, :]]).max())
        if leak > leak_tol:
            raise ValidationError(f"reduced weighted state has {leak:.3e} of mass outside the support "
                                  "of the reduced state")
    return -np.einsum("...ii,...i->...", y, _ln_support(lams)).real


def weighted_entropy(phi: WeightMatrix, rho: DensityMatrix) -> float:
    """``-tr(phi rho ln rho)`` with the 0 ln 0 = 0 convention.

    Evaluated on the spectrum ``rho`` was validated with; eigenvalues at or
    below 1e-12 count as zero. The trace of two Hermitian factors is real up to
    rounding, so its real part is kept.
    """
    if phi.dim != rho.dim:
        raise DimensionError(f"weight dim {phi.dim} does not match state dim {rho.dim}")
    return float(_joint_entropy(phi.matrix, rho.spectrum))


def qutrit_mutual_information_closed_form(p1, p2, phi1, phi2, chi1, chi2):
    """Closed form of the mutual information for an embedded diagonal qutrit.

    Accepts scalars or broadcastable arrays. Each log is taken on the support
    (above 1e-12) of its argument, as the matrix path takes it on reduced
    eigenvalues; ``1 / p1`` applies only where ``p1`` is on the support.
    Weights must be nonnegative and finite; zero weights let region boundaries
    evaluate. A NaN or infinite probability or weight raises.
    """
    p1v, p2v = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    p1v, p2v, p3 = _simplex(p1v, p2v, 1.0 - p1v - p2v)
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    a1 = p1v + p2v
    b1 = p1v + p3
    safe_p1 = np.where(p1v > SUPPORT_EPS, p1v, 1.0)
    t1 = f1 * c1 * p1v * _ln_support(a1 * b1 / safe_p1)
    t2 = f1 * c2 * p2v * _ln_support(a1)
    t3 = f2 * c1 * p3 * _ln_support(b1)
    # 0.0 - x instead of -x: an all-zero sum comes back as +0.0, not -0.0
    out = 0.0 - (t1 + t2 + t3)
    return float(out) if out.ndim == 0 else out
