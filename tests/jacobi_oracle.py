"""Cyclic Jacobi eigendecompositions of complex Hermitian matrices, as a test oracle.

Plain Python over numpy and independent of ``wqent``, so a test that checks
``hermitian_eig`` (LAPACK) or a closed form against it compares two different solvers.
"""

import math

import numpy as np

# sweeps allowed before the oracle gives up; small matrices need under 10
SWEEPS = 40
# target: off-diagonal Frobenius norm relative to the input norm
_OFF_DIAG_FACTOR = 1e-13


def _off_diag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diagonal(a))))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
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
    v[:, pq] = v[:, pq] @ rot
    # the rotation annihilates this pair by construction; set it exactly
    a[p, q] = a[q, p] = 0.0


def jacobi_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the Hermitian part of ``m`` and their eigenvectors, as columns.

    Sweeps the index pairs in row order, one complex rotation per pair,
    until the off-diagonal norm drops below 1e-13 times the input norm; the
    eigenvectors are the product of the rotations. Raises ``AssertionError`` if
    ``SWEEPS`` sweeps do not get there.
    """
    a = np.array(m, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    target = _OFF_DIAG_FACTOR * float(np.linalg.norm(a))
    for _ in range(SWEEPS):
        if _off_diag_norm(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, v, p, q)
    off = _off_diag_norm(a)
    if off > target:
        raise AssertionError(f"Jacobi left off-diagonal norm {off:.3e} after {SWEEPS} sweeps")
    lams = np.diagonal(a).real
    order = np.argsort(lams, kind="stable")
    return lams[order], v[:, order]


def jacobi_eigvalsh(m) -> np.ndarray:
    """The ascending eigenvalues of :func:`jacobi_eigh`."""
    return jacobi_eigh(m)[0]
