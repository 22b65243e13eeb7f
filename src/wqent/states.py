"""Validated state and weight types plus samplers.

Constructors check their invariants and raise; nothing is silently
renormalized. Each object stores the Hermitian part ``(m + m^dagger) / 2`` of
its input as a frozen copy, safe to share; for Hermitian input that is the
input bit for bit. A ``DensityMatrix`` also keeps the spectrum that its
validation computed, so evaluation neither diagonalizes the state again nor
judges its eigenvalues against any tolerance but the one it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidSimplexError,
    NegativeEigenvalueError,
    NotHermitianError,
    ValidationError,
)
from .linalg import _as_square, hermitian_deviation, hermitian_eig

DEFAULT_TOL = 1e-10
SIMPLEX_TOL = 1e-12
DEFAULT_SCALE_RANGE = (0.05, 2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hermitian_part(matrix, tol: float, label: str) -> np.ndarray:
    a = _as_square(matrix)
    dev = hermitian_deviation(a)
    if dev > tol:
        raise NotHermitianError(f"{label} deviates from Hermitian by {dev:.3e}")
    return _frozen(0.5 * (a + a.conj().T))


class DensityMatrix:
    """Hermitian, positive semidefinite, unit trace.

    ``spectrum`` is the decomposition of ``matrix`` made during validation.
    Eigenvalues in ``[-tol, 0)`` passed as noise; evaluation counts every
    eigenvalue at or below 1e-12 as zero.
    """

    __slots__ = ("matrix", "spectrum")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a = _hermitian_part(matrix, tol, "state")
        spectrum = hermitian_eig(a, tol=tol)
        low = spectrum.eigenvalues[0]
        if low < -tol:
            raise NegativeEigenvalueError(
                f"state is not positive semidefinite (min eigenvalue {low:.3e})"
            )
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > tol:
            raise ValidationError(f"state trace {tr.real:.12g} differs from 1 beyond {tol:.1e}")
        for part in spectrum:
            _frozen(part)
        self.matrix = a
        self.spectrum = spectrum

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class WeightMatrix:
    """Hermitian positive definite observable weight.

    With ``allow_semidefinite=True`` a zero eigenvalue (within ``tol``) is
    accepted and flagged on ``degenerate``; callers hitting that case should
    expect entropy weights to kill the corresponding directions.
    """

    __slots__ = ("matrix", "degenerate")

    def __init__(self, matrix, tol: float = DEFAULT_TOL, allow_semidefinite: bool = False):
        a = _hermitian_part(matrix, tol, "weight")
        low = hermitian_eig(a, tol=tol).eigenvalues[0]
        if allow_semidefinite:
            if low < -tol:
                raise NegativeEigenvalueError(
                    f"weight is not positive semidefinite (min eigenvalue {low:.3e})"
                )
            self.degenerate = bool(low <= tol)
        else:
            if low <= 0.0:
                raise ValidationError(f"weight is not positive definite (min eigenvalue {low:.3e})")
            self.degenerate = False
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
        ps = (self.p1, self.p2, self.p3)
        if min(ps) < 0.0:
            raise InvalidSimplexError(f"probabilities must be nonnegative, got {ps}")
        total = self.p1 + self.p2 + self.p3
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise InvalidSimplexError(f"probabilities sum to {total!r}, expected 1")


def embed_ququart(p1: float, p2: float, p3: float, p4: float) -> BipartiteState:
    """Diagonal four-level state viewed as two qubits (first factor slow)."""
    ps = (p1, p2, p3, p4)
    if min(ps) < 0.0:
        raise InvalidSimplexError(f"probabilities must be nonnegative, got {ps}")
    total = sum(ps)
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise InvalidSimplexError(f"probabilities sum to {total!r}, expected 1")
    rho = np.diag(np.asarray(ps, dtype=complex))
    return BipartiteState(DensityMatrix(rho), 2, 2)


def embed_qutrit(q: QutritDiagonal) -> BipartiteState:
    """Embed a qutrit as a ququart by appending a zero-probability level."""
    return embed_ququart(q.p1, q.p2, q.p3, 0.0)


def product_weight(weight_a: WeightMatrix, weight_b: WeightMatrix) -> WeightMatrix:
    """``phi_A (x) phi_B``, degenerate when either factor is.

    The Kronecker product of two validated weights is Hermitian and positive
    (semi)definite by construction, so it is not diagonalized again.
    """
    out = WeightMatrix.__new__(WeightMatrix)
    out.matrix = _frozen(np.kron(weight_a.matrix, weight_b.matrix))
    out.degenerate = weight_a.degenerate or weight_b.degenerate
    return out


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_density(dim: int, rng) -> DensityMatrix:
    """Trace-normalized G G^dagger for G with iid complex Gaussian entries."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    g = _as_rng(rng)
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    w = z @ z.conj().T
    return DensityMatrix(w / np.trace(w).real)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """QR of a complex Gaussian matrix, phases corrected for Haar measure."""
    g = _as_rng(rng)
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_weight(dim: int, rng, scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE) -> WeightMatrix:
    """Random positive definite weight: Haar frame, uniform spectrum."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    lo, hi = scale_range
    if not (0.0 < lo <= hi):
        raise ValidationError(f"scale_range must satisfy 0 < lo <= hi, got {scale_range}")
    g = _as_rng(rng)
    u = g.uniform(lo, hi, size=dim)
    v = haar_unitary(dim, g)
    return WeightMatrix((v * u) @ v.conj().T)
