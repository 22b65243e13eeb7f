"""Dense Hermitian linear algebra on small complex matrices.

Everything works on plain numpy ``complex128`` arrays: one matrix, or a stack
of them with shape ``(..., d, d)``. Bipartite helpers use the "first factor
slow" index convention: basis state ``(a, b)`` of an ``dim_a * dim_b`` system
sits at index ``a * dim_b + b``, matching the layout produced by ``np.kron``.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import DEFAULT_TOL, DimensionError, NotHermitianError, ValidationError

# Values at or below this count as zero: eigenvalues and probabilities off the
# support, simplex slack, and a vanishing channel overlap.
SUPPORT_EPS = 1e-12

Subsystem = Literal["A", "B"]


def _as_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has NaN or infinite entries")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _positive_tol(value: float, name: str = "tol") -> None:
    """The check every caller-given tolerance passes: a number strictly between 0 and 1 (a NaN fails)."""
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must be positive and finite and below 1, got {value}")


def _within_noise(deviation: float, scale: float, tol: float) -> bool:
    """The one noise rule: ``deviation`` is at most ``tol`` times ``scale``, or times 1 where that is smaller.

    Rounding grows with the magnitude of what is computed, so a deviation of a matrix of large norm
    is divided by that norm, not ``tol`` multiplied by it, so nothing overflows; at a scale of at most 1
    it is taken as it is, which saves an array a pass. The rule is in positive form, so a NaN fails.
    """
    return (deviation / scale if scale > 1.0 else deviation) <= tol


def _hermitize(a: np.ndarray, a_dagger: np.ndarray | None = None) -> np.ndarray:
    # halved before the sum, so finite entries give a finite result; each entry and its
    # mirror add the same two halves, so the result is exactly Hermitian
    return 0.5 * a + 0.5 * (_dagger(a) if a_dagger is None else a_dagger)


def _hermitian_part(a: np.ndarray, tol: float, label: str = "matrix") -> np.ndarray:
    """``(a + a^dagger) / 2`` once ``tol`` is in (0, 1) and the largest ``|a - a^dagger|`` is within noise
    (:func:`_within_noise`) of the largest real or imaginary part of ``a`` in magnitude."""
    _positive_tol(tol)
    a_dagger = _dagger(a)
    # a deviation too large for a float reads inf, which fails the check. The scale is read only
    # for a deviation over tol, which Hermitian input never has, and from the parts, as |a| can overflow
    with np.errstate(over="ignore"):
        dev = float(np.abs(a - a_dagger).max())
    if not (_within_noise(dev, 1.0, tol) or _within_noise(dev, max(np.abs(a.real).max(), np.abs(a.imag).max()), tol)):
        raise NotHermitianError(f"{label} deviates from Hermitian by {dev:.3e}")
    return _hermitize(a, a_dagger)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a (x) b`` item by item over stacks; on one pair, ``np.kron`` bit for bit."""
    outer = a[..., :, None, :, None] * b[..., None, :, None, :]
    return outer.reshape(outer.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def _trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", a, b)


def _ln_support(x: np.ndarray) -> np.ndarray:
    """``ln x`` elementwise, and +0.0 wherever ``x`` is at or below 1e-12 (or NaN).

    A plain ``np.log(x)`` when the smallest entry (NaN if any is) exceeds 1e-12, else one masked pass,
    ``np.log(x, out=np.zeros(x.shape), where=x > 1e-12)``: the same bits, as the plain log takes
    only logs the masked one takes, without its mask and zeroed output.
    """
    if x.min(initial=np.inf) > SUPPORT_EPS:
        return np.log(x)
    return np.log(x, out=np.zeros(x.shape), where=x > SUPPORT_EPS)


def _xlnx(x: np.ndarray) -> np.ndarray:
    """``x ln x`` elementwise on the same support, so ``0 ln 0 = 0``."""
    return x * _ln_support(x)


def _partial_trace(a: np.ndarray, dim_a: int, dim_b: int, keep: Subsystem) -> np.ndarray:
    """:func:`partial_trace` of a complex stack whose last two axes factor as ``dim_a * dim_b``, unchecked."""
    r = a.reshape(a.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return np.einsum("...ibjb->...ij" if keep == "A" else "...aiaj->...ij", r)


def partial_trace(m, dim_a: int, dim_b: int, keep: Subsystem) -> np.ndarray:
    """Trace out one factor of a ``dim_a * dim_b`` composite matrix or stack.

    ``keep="A"`` returns the ``dim_a x dim_a`` block sums over the fast index,
    ``keep="B"`` the ``dim_b x dim_b`` sums over the slow index.
    """
    a = _as_stack(m)
    if dim_a < 1 or dim_b < 1 or a.shape[-1] != dim_a * dim_b:
        raise DimensionError(f"matrix of dim {a.shape[-1]} does not factor as {dim_a}x{dim_b}")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return _partial_trace(a, dim_a, dim_b, keep)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvectors as the matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    # make the largest-magnitude component of each column real and positive (unit
    # columns keep it away from zero); all items' columns side by side, d x (n k)
    d, k = vecs.shape[-2:]
    cols = vecs.reshape(-1, d, k).swapaxes(0, 1).reshape(d, -1)
    lead = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    return vecs * (lead.conj() / np.abs(lead)).reshape(vecs.shape[:-2] + (1, k))


def _eigh(a: np.ndarray) -> SpectralDecomposition:
    """``np.linalg.eigh`` of a stack already finite and exactly Hermitian, unchecked, with LAPACK's phases."""
    return SpectralDecomposition(*np.linalg.eigh(a))


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix or stack with LAPACK (``np.linalg.eigh``).

    The Hermitian part ``(m + m^dagger) / 2`` is decomposed. Eigenvalues come
    back ascending; each eigenvector is rephased so its largest component is
    real and positive, which makes the output reproducible bit for bit.

    Raises :class:`NotHermitianError` for inputs off-Hermitian beyond noise (:func:`_within_noise`),
    and :class:`ValidationError` unless ``tol`` lies in (0, 1).
    """
    lams, vecs = _eigh(_hermitian_part(_as_stack(m), tol))
    return SpectralDecomposition(lams, _fix_phases(vecs))


def xlogx_matrix(spectrum: SpectralDecomposition) -> np.ndarray:
    """Apply ``x * ln(x)`` to a decomposed spectrum, with ``0 * ln(0) = 0``.

    Eigenvalues at or below 1e-12 map to 0. Whether a negative eigenvalue is
    noise or an error is decided where the spectrum was validated.
    """
    lams, u = spectrum
    return (u * _xlnx(lams)[..., None, :]) @ _dagger(u)
