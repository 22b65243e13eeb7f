"""Validated state and weight types plus samplers.

Constructors check their invariants and raise; nothing is silently
renormalized. Each object stores the Hermitian part ``(m + m^dagger) / 2`` of
its input as a frozen copy, safe to share; for Hermitian input that is the
input bit for bit. A ``DensityMatrix`` also keeps the spectrum that its
validation computed, so evaluation neither diagonalizes the state again nor
judges its eigenvalues against any tolerance but the one it was built with.
Finiteness and Hermiticity are checked once, in ``_validated``; the spectra
are then taken of the exactly Hermitian stored matrix without a second check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidSimplexError, NegativeEigenvalueError, ValidationError
from .linalg import DEFAULT_TOL, SUPPORT_EPS, SpectralDecomposition, _as_stack, _dagger, _eigh, _hermitian_part
from .linalg import _hermitize

DEFAULT_SCALE_RANGE = (0.05, 2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _positive_tol(value: float, name: str = "tol") -> None:
    """The check every caller-given tolerance passes: a finite number above zero."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value}")


def _simplex(*ps) -> list[np.ndarray]:
    """The probabilities as float arrays once each is ``>= -SUPPORT_EPS`` and they sum to 1 within it.

    The one simplex rule. It is written in positive form, so a NaN fails it; the sum
    is formed only once no entry is negative, so it never meets ``inf - inf``.
    """
    arrays = [np.asarray(p, dtype=float) for p in ps]
    if not (all((p >= -SUPPORT_EPS).all() for p in arrays) and (abs(sum(arrays) - 1.0) <= SUPPORT_EPS).all()):
        raise InvalidSimplexError(f"probabilities must be >= -{SUPPORT_EPS:g} and sum to 1 within {SUPPORT_EPS:g}")
    return arrays


def _nonnegative_weights(*weights) -> list[np.ndarray]:
    """The weights as float arrays once every entry is nonnegative and finite (a NaN fails)."""
    arrays = [np.asarray(w, dtype=float) for w in weights]
    if not all(((w >= 0.0) & (w < np.inf)).all() for w in arrays):
        raise ValidationError("weights must be nonnegative and finite")
    return arrays


def _validated(matrix, tol: float, label: str) -> np.ndarray:
    """The frozen Hermitian part of one finite square matrix, Hermitian within ``tol``."""
    _positive_tol(tol)
    a = _as_stack(matrix)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return _frozen(_hermitian_part(a, tol, label))


def _psd(matrix, tol: float, label: str) -> tuple[np.ndarray, SpectralDecomposition]:
    """:func:`_validated` and its spectrum, once no eigenvalue lies below ``-tol``."""
    a = _validated(matrix, tol, label)
    spectrum = _eigh(a)
    low = spectrum.eigenvalues[0]
    if low < -tol:
        raise NegativeEigenvalueError(f"{label} is not positive semidefinite (min eigenvalue {low:.3e})")
    return a, spectrum


class DensityMatrix:
    """Hermitian, positive semidefinite, unit trace.

    ``spectrum`` is the decomposition of ``matrix`` made during validation at
    ``tol``. Eigenvalues in ``[-tol, 0)`` passed as noise; evaluation counts every
    eigenvalue at or below 1e-12 as zero, and ``tol`` bounds off-support mass.
    """

    __slots__ = ("matrix", "spectrum", "tol")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a, spectrum = _psd(matrix, tol, "state")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > tol:
            raise ValidationError(f"state trace {tr.real:.12g} differs from 1 beyond {tol:.1e}")
        for part in spectrum:
            _frozen(part)
        self.matrix = a
        self.spectrum = spectrum
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class WeightMatrix:
    """Hermitian positive semidefinite observable weight.

    Eigenvalues in ``[-tol, 0)`` pass as noise, as for a state. A minimum
    eigenvalue at or below ``tol`` is flagged on ``degenerate``: such a weight
    kills the corresponding directions in every entropy it enters.
    """

    __slots__ = ("matrix", "degenerate")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a, spectrum = _psd(matrix, tol, "weight")
        self.degenerate = bool(spectrum.eigenvalues[0] <= tol)
        self.matrix = a

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"WeightMatrix(dim={self.dim}, degenerate={self.degenerate})"


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix together with its tensor factorization."""

    rho: DensityMatrix
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 2 or self.dim_b < 2:
            raise ValidationError(f"subsystem dims must be >= 2, got {self.dim_a}x{self.dim_b}")
        if self.rho.dim != self.dim_a * self.dim_b:
            raise DimensionError(
                f"state dim {self.rho.dim} does not factor as {self.dim_a}x{self.dim_b}"
            )

    @property
    def dim(self) -> int:
        return self.rho.dim


@dataclass(frozen=True)
class QutritDiagonal:
    """Diagonal three-level probabilities (p1, p2, p3)."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        _simplex(self.p1, self.p2, self.p3)


def embed_ququart(p1: float, p2: float, p3: float, p4: float) -> BipartiteState:
    """Diagonal four-level state viewed as two qubits (first factor slow)."""
    rho = np.diag(np.asarray(_simplex(p1, p2, p3, p4), dtype=complex))
    return BipartiteState(DensityMatrix(rho), 2, 2)


def embed_qutrit(q: QutritDiagonal) -> BipartiteState:
    """Embed a qutrit as a ququart by appending a zero-probability level."""
    return embed_ququart(q.p1, q.p2, q.p3, 0.0)


# Batched samplers draw n items at once as (n, dim, dim) stacks. The public
# samplers are their n = 1 case, so one seeded item is the same either way.
def _gaussian(g: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _density_stack(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    z = _gaussian(g, (n, dim, dim))
    w = z @ _dagger(z)
    return _hermitize(w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None])


def _unitary_stack(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(g, (n, dim, dim)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _weight_stack(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    u = g.uniform(*DEFAULT_SCALE_RANGE, size=(n, dim))
    v = _unitary_stack(g, n, dim)
    return _hermitize((v * u[:, None, :]) @ _dagger(v))


def random_density(dim: int, rng) -> DensityMatrix:
    """Trace-normalized G G^dagger for G with iid complex Gaussian entries."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    return DensityMatrix(_density_stack(np.random.default_rng(rng), 1, dim)[0])


def haar_unitary(dim: int, rng) -> np.ndarray:
    """QR of a complex Gaussian matrix, phases corrected for Haar measure."""
    return _unitary_stack(np.random.default_rng(rng), 1, dim)[0]


def random_weight(dim: int, rng) -> WeightMatrix:
    """Random positive definite weight: Haar frame, spectrum uniform on ``DEFAULT_SCALE_RANGE``."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    return WeightMatrix(_weight_stack(np.random.default_rng(rng), 1, dim)[0])
