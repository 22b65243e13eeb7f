"""Validated state and weight types plus samplers.

Constructors check their invariants and raise; nothing is silently
renormalized. Each object stores the Hermitian part ``(m + m^dagger) / 2`` of
its input as a frozen copy, safe to share; it is finite for finite input, and
for Hermitian input it is the input bit for bit, unless a real or imaginary
part lies below ``2**-1021`` in magnitude, where halving it may round.
Finiteness and Hermiticity are checked once, in ``_validated``; the stored,
exactly Hermitian matrix is then decomposed without a second check. One positive
semidefinite rule, ``_psd``, judges the eigenvalues of states and weights alike.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidSimplexError, NegativeEigenvalueError, ValidationError
from .linalg import DEFAULT_TOL, SUPPORT_EPS, _as_stack, _dagger, _eigh, _hermitian_part, _hermitize
from .linalg import _within_noise

DEFAULT_SCALE_RANGE = (0.05, 2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _floats(*values) -> list:
    """Each value as float64: an array for an array, and a numpy scalar for a scalar, whose arithmetic
    costs a fraction of a 0-d array's ufunc calls and gives the same doubles."""
    return [np.asarray(v, dtype=float)[()] for v in values]


def _all(conditions) -> bool:
    """Whether every entry of every condition holds: one ``&`` chain, broadcast, and one reduction."""
    return bool(functools.reduce(operator.and_, conditions).all())


def _simplex(*ps) -> list[np.ndarray]:
    """The probabilities as floats (:func:`_floats`) once each is ``>= -SUPPORT_EPS`` and they sum to 1
    within it.

    The one simplex rule. It is written in positive form, so a NaN fails it; the sum
    is formed only once no entry is negative, so it never meets ``inf - inf``.
    """
    arrays = _floats(*ps)
    if not (_all([p >= -SUPPORT_EPS for p in arrays]) and (abs(sum(arrays) - 1.0) <= SUPPORT_EPS).all()):
        raise InvalidSimplexError(f"probabilities must be >= -{SUPPORT_EPS:g} and sum to 1 within {SUPPORT_EPS:g}")
    return arrays


def _nonnegative_weights(*weights) -> list[np.ndarray]:
    """The weights as floats (:func:`_floats`) once every entry is nonnegative and finite (a NaN fails)."""
    arrays = _floats(*weights)
    if not _all([(w >= 0.0) & (w < np.inf) for w in arrays]):
        raise ValidationError("weights must be nonnegative and finite")
    return arrays


def _finite(out, label: str):
    """``out`` once every entry is finite.

    Its inputs were checked finite and it was formed with numpy's overflow and invalid
    warnings off, so a non-finite entry is an overflow, and it raises as one.
    """
    if not np.isfinite(out).all():
        raise ValidationError(f"{label} overflows a float at these weights")
    return out


def _validated(matrix, tol: float, label: str) -> np.ndarray:
    """The frozen Hermitian part of one finite square matrix, Hermitian within noise at a ``tol`` in (0, 1)."""
    a = _as_stack(matrix)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return _frozen(_hermitian_part(a, tol, label))


def _psd(eigenvalues: np.ndarray, tol: float, label: str) -> float:
    """The smallest of the ascending ``eigenvalues``, once minus it is within noise
    (:func:`~wqent.linalg._within_noise`) of the largest, the norm of a matrix near semidefinite."""
    low = eigenvalues[0]
    if not _within_noise(-low, eigenvalues[-1], tol):
        raise NegativeEigenvalueError(f"{label} is not positive semidefinite (min eigenvalue {low:.3e})")
    return low


class DensityMatrix:
    """Hermitian, positive semidefinite, unit trace.

    ``spectrum``, eigenvectors with LAPACK's phases, is the decomposition of
    ``matrix`` made during validation at ``tol``, never recomputed. Eigenvalues in
    ``[-tol, 0)`` passed as noise (the floor scales with an eigenvalue above 1,
    which a unit-trace state cannot exceed by more than about ``tol``);
    evaluation counts every eigenvalue at or below 1e-12 as zero, and ``tol``
    bounds off-support mass.
    """

    __slots__ = ("matrix", "spectrum", "tol")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a = _validated(matrix, tol, "state")
        spectrum = _eigh(a)
        _psd(spectrum.eigenvalues, tol, "state")
        tr = complex(np.trace(a))
        if not _within_noise(abs(tr - 1.0), 1.0, tol):
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

    Judged on its eigenvalues alone, by the state's rule: a negative one passes as noise
    down to ``-tol`` times the largest eigenvalue, or times 1 if that is below 1, and a
    minimum at or below ``tol`` is flagged on ``degenerate``: such a weight kills the
    corresponding directions in every entropy it enters.
    """

    __slots__ = ("matrix", "degenerate")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a = _validated(matrix, tol, "weight")
        self.degenerate = bool(_within_noise(_psd(np.linalg.eigvalsh(a), tol, "weight"), 1.0, tol))
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
    """:func:`haar_unitary` for ``n`` draws at once."""
    z = _gaussian(g, (n, dim, dim))
    if dim != 2:
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (d / np.abs(d))[:, None, :]
    # each entry is written in place: stacking four columns took about twice as long at 8192 items
    q = np.empty_like(z)
    norm = np.hypot(np.abs(z[:, 0, 0]), np.abs(z[:, 1, 0]))
    a = np.divide(z[:, 0, 0], norm, out=q[:, 0, 0])
    b = np.divide(z[:, 1, 0], norm, out=q[:, 1, 0])
    w = a * z[:, 1, 1] - b * z[:, 0, 1]  # det z / norm
    w /= np.abs(w)
    np.multiply(-b.conj(), w, out=q[:, 0, 1])
    np.multiply(a.conj(), w, out=q[:, 1, 1])
    return q


def _scale_draws(g: np.random.Generator, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """``g.uniform(*DEFAULT_SCALE_RANGE, shape)`` bit for bit, from the same draws, scaled in place,
    in a new array or in ``out`` (float64, of that shape) as ``g.random`` fills it.

    ``Generator.uniform`` forms ``lo + (hi - lo) * u`` from one ``g.random()`` double per entry;
    the same two roundings in place skip its broadcasting of the bounds.
    """
    lo, hi = DEFAULT_SCALE_RANGE
    x = g.random(shape, out=out)
    x *= hi - lo
    x += lo
    return x


def _weight_stack(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    u = _scale_draws(g, (n, dim))
    v = _unitary_stack(g, n, dim)
    return _hermitize((v * u[:, None, :]) @ _dagger(v))


def random_density(dim: int, rng) -> DensityMatrix:
    """Trace-normalized G G^dagger for G with iid complex Gaussian entries."""
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    return DensityMatrix(_density_stack(np.random.default_rng(rng), 1, dim)[0])


def haar_unitary(dim: int, rng) -> np.ndarray:
    """QR of a complex Gaussian matrix ``z``, phases corrected for Haar measure: ``R``'s diagonal positive.

    At dim 2 the factor is written out from the same draws, with no LAPACK call: for ``(a, b)`` the
    normalised first column of ``z`` and ``w = det z / |det z|``, it is ``[[a, -conj(b) w], [b, conj(a) w]]``.
    It differs from the QR factor by rounding alone, at most 4 eps times the condition number of ``z``,
    since both carry the phase of ``det z``: under 1e-14 where that number is below 10, and 2.5e-14 at
    worst in 6e4 draws. Every other dim takes the QR factor.
    """
    return _unitary_stack(np.random.default_rng(rng), 1, dim)[0]


def random_weight(dim: int, rng) -> WeightMatrix:
    """Random positive definite weight: Haar frame, spectrum uniform on ``DEFAULT_SCALE_RANGE``.

    The frame is :func:`haar_unitary`'s, so at dim 2 it is the closed-form QR factor.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    return WeightMatrix(_weight_stack(np.random.default_rng(rng), 1, dim)[0])
