"""Dense Hermitian linear algebra on small complex matrices.

Everything works on plain numpy ``complex128`` arrays. Bipartite helpers use
the "first factor slow" index convention: basis state ``(a, b)`` of an
``dim_a * dim_b`` system sits at index ``a * dim_b + b``, matching the layout
produced by ``np.kron``.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionError, NotHermitianError, ValidationError

# Default tolerance for Hermiticity checks.
HERMITIAN_TOL = 1e-10
# Eigenvalues at or below this count as zero when applying matrix functions.
SUPPORT_EPS = 1e-12

Subsystem = Literal["A", "B"]


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has NaN or infinite entries")
    return a


def hermitian_deviation(m) -> float:
    """Largest entry of ``|m - m^dagger|``."""
    a = _as_square(m)
    return float(np.abs(a - a.conj().T).max())


def partial_trace(m, dim_a: int, dim_b: int, keep: Subsystem) -> np.ndarray:
    """Trace out one factor of a ``dim_a * dim_b`` composite matrix.

    ``keep="A"`` returns the ``dim_a x dim_a`` block sums over the fast index,
    ``keep="B"`` the ``dim_b x dim_b`` sums over the slow index.
    """
    a = _as_square(m)
    if dim_a < 1 or dim_b < 1 or a.shape[0] != dim_a * dim_b:
        raise DimensionError(
            f"matrix of dim {a.shape[0]} does not factor as {dim_a}x{dim_b}"
        )
    r = a.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("aiaj->ij", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


class SpectralDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvectors as the matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vecs: np.ndarray) -> None:
    # make the largest-magnitude component of each column real and positive;
    # unit columns keep that component away from zero
    lead = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    vecs *= lead.conj() / np.abs(lead)


def hermitian_eig(m, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK (``np.linalg.eigh``).

    The Hermitian part ``(m + m^dagger) / 2`` is decomposed. Eigenvalues come
    back ascending; each eigenvector is rephased so its largest component is
    real and positive, which makes the output reproducible bit for bit.

    Raises :class:`NotHermitianError` for inputs off-Hermitian beyond ``tol``.
    """
    a = _as_square(m)
    dev = float(np.abs(a - a.conj().T).max())
    if dev > tol:
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    lams, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    _fix_phases(vecs)
    return SpectralDecomposition(lams, vecs)


def xlogx_matrix(spectrum: SpectralDecomposition) -> np.ndarray:
    """Apply ``x * ln(x)`` to a decomposed spectrum, with ``0 * ln(0) = 0``.

    Eigenvalues at or below 1e-12 map to 0. Whether a negative eigenvalue is
    noise or an error is decided where the spectrum was validated.
    """
    lams, u = spectrum
    on = lams > SUPPORT_EPS
    f = np.where(on, lams * np.log(np.where(on, lams, 1.0)), 0.0)
    return (u * f) @ u.conj().T
