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
engine in :mod:`wqent.inequality` is the one caller of the subsystem kernel,
which returns its largest off-support weighted mass for the engine to judge.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import SUPPORT_EPS, SpectralDecomposition, _dagger, _eigh, _ln_support, _trace_product
from .linalg import xlogx_matrix
from .states import DensityMatrix, WeightMatrix, _finite, _floats, _nonnegative_weights, _simplex


def _joint_entropy(phi: np.ndarray, spectrum: SpectralDecomposition) -> np.ndarray:
    """``-tr(phi rho ln rho)`` from the spectrum of rho, item by item; the real part of the trace."""
    # 0.0 - x instead of -x, here and below: a zero trace comes back as +0.0, not -0.0
    return 0.0 - _trace_product(phi, xlogx_matrix(spectrum)).real


def _qubit_entropy(x: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float] | None:
    """:func:`_subsystem_entropy` of one 2x2 reduced state or a stack of them, in closed form; ``None`` if
    some item has both eigenvalues off the support.

    For ``rho = [[p, q], [conj q, s]]``, ``h = (p - s) / 2`` and ``r = hypot(h, |q|)``, the larger
    eigenvalue is ``(p + s) / 2 + r`` and the smaller ``det rho`` over it, which keeps a small
    eigenvalue's relative accuracy. The weights ``tr(x P-+)`` use
    ``P-+ = (I -+ [[h, q], [conj q, -h]] / r) / 2``, accurate however close the eigenvalues. Where
    ``q == 0`` the diagonals are used as they are, in ascending order.
    """
    p, s, q = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1]
    x00, x11 = x[..., 0, 0], x[..., 1, 1]
    h, aq, zero = 0.5 * (p - s), np.abs(q), q == 0
    r = np.hypot(h, aq)
    hi = 0.5 * (p + s) + r
    # items with q == 0 take their diagonals below; adding 1 to their denominators keeps 0 / 0 out
    lo = (p * s - aq * aq) / (hi + zero)
    g = (h * (x00 - x11) + q.conj() * x[..., 0, 1] + q * x[..., 1, 0]) / (2.0 * r + zero)
    half = 0.5 * (x00 + x11)
    t_lo, t_hi = half - g, half + g
    if zero.any():
        swap = p > s
        lo, hi = np.where(zero, np.minimum(p, s), lo), np.where(zero, np.maximum(p, s), hi)
        t_lo = np.where(zero, np.where(swap, x11, x00), t_lo)
        t_hi = np.where(zero, np.where(swap, x00, x11), t_hi)
    if (hi <= SUPPORT_EPS).any():
        return None
    off = lo <= SUPPORT_EPS
    leak = float(np.abs(t_lo[off]).max()) if off.any() else 0.0
    # hi is on the support here, so it takes a plain log
    return 0.0 - (t_lo.real * _ln_support(lo) + t_hi.real * np.log(hi)), leak


def _subsystem_entropy(x: np.ndarray, rho_kept: np.ndarray) -> tuple[np.ndarray, float]:
    """``-Re tr(x ln rho_kept)`` on the support of ``rho_kept``, and the largest mass ``|x|`` puts off it (or 0.0).

    ``rho_kept`` is a partial trace of a validated (exactly Hermitian) state, so it is
    exactly Hermitian too and is diagonalized without a second check. Every 2x2 reduced
    state, one item or a stack, takes the closed form :func:`_qubit_entropy`; ``eigh`` serves
    larger ones, and a 2x2 item with both eigenvalues off the support.
    """
    if rho_kept.shape[-1] == 2:
        out = _qubit_entropy(x, rho_kept)
        if out is not None:
            return out
    lams, u = _eigh(rho_kept)
    y = _dagger(u) @ x @ u
    off = lams <= SUPPORT_EPS
    leak = float(np.abs(y[off[..., :, None] & off[..., None, :]]).max()) if off.any() else 0.0
    return 0.0 - np.einsum("...ii,...i->...", y, _ln_support(lams)).real, leak


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
    evaluate. A NaN or infinite probability or weight raises, and so do finite
    weights too large for a finite result.
    """
    p1v, p2v = _floats(p1, p2)
    p1v, p2v, p3 = _simplex(p1v, p2v, 1.0 - p1v - p2v)
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    a1 = p1v + p2v
    b1 = p1v + p3
    safe_p1 = np.where(p1v > SUPPORT_EPS, p1v, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = f1 * c1 * p1v * _ln_support(a1 * b1 / safe_p1)
        t2 = f1 * c2 * p2v * _ln_support(a1)
        t3 = f2 * c1 * p3 * _ln_support(b1)
        # 0.0 - x instead of -x: an all-zero sum comes back as +0.0, not -0.0
        out = _finite(0.0 - (t1 + t2 + t3), "the qutrit mutual information")
    return float(out) if out.ndim == 0 else out
