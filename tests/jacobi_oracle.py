"""Cyclic Jacobi eigenvalues of complex Hermitian matrices, as a test oracle.

Plain Python over numpy and independent of ``wqent``, so a test that checks
``hermitian_eig`` (LAPACK) against it compares two different solvers.
"""

import math

import numpy as np

# sweeps allowed before the oracle gives up; small matrices need under 10
SWEEPS = 40
# target: off-diagonal Frobenius norm relative to the input norm
_OFF_DIAG_FACTOR = 1e-13


def _off_diag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diagonal(a))))


def _rotate(a: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    r = abs(apq)
    if r == 0.0:
        return
    u = apq / r
    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
    # smaller root of t^2 + 2 tau t - 1 = 0 keeps the rotation angle <= pi/4
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    su = t * c * u
    rot = np.array([[c, su], [-np.conj(su), c]])
    pq = [p, q]
    a[:, pq] = a[:, pq] @ rot
    a[pq, :] = rot.conj().T @ a[pq, :]
    # the rotation annihilates this pair by construction; set it exactly
    a[p, q] = a[q, p] = 0.0


def jacobi_eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``.

    Sweeps the index pairs in row order, one complex rotation per pair,
    until the off-diagonal norm drops below 1e-13 times the input norm.
    Raises ``AssertionError`` if ``SWEEPS`` sweeps do not get there.
    """
    a = np.array(m, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    target = _OFF_DIAG_FACTOR * float(np.linalg.norm(a))
    for _ in range(SWEEPS):
        if _off_diag_norm(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, p, q)
    off = _off_diag_norm(a)
    if off > target:
        raise AssertionError(f"Jacobi left off-diagonal norm {off:.3e} after {SWEEPS} sweeps")
    return np.sort(np.diagonal(a).real)
