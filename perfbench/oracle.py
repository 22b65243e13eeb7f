"""Reference values for the benchmark, written from the definitions alone.

Nothing here imports ``wqent``. Spectra come from ``scipy.linalg.eigh``, so
the oracle stays independent of whichever routine backs the program's own
eigensolver. Bipartite indices are "first factor slow": basis state (a, b)
of a dA x dB system sits at a * dB + b.

Entropy traces are returned as complex numbers; callers decide whether an
imaginary part is an error or is dropped.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Eigenvalues at or below this count as zero (0 ln 0 = 0, log on support).
SUPPORT = 1e-12


def eigh(m: np.ndarray):
    return scipy.linalg.eigh(0.5 * (m + m.conj().T))


def ptrace(m: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    """Partial trace keeping factor ``keep`` ("A" or "B")."""
    r = m.reshape(da, db, da, db)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def entropy(phi: np.ndarray, rho: np.ndarray) -> complex:
    """``-tr(phi rho ln rho)``."""
    w, v = eigh(rho)
    f = np.where(w > SUPPORT, w * np.log(np.where(w > SUPPORT, w, 1.0)), 0.0)
    return -complex(np.trace(phi @ (v * f) @ v.conj().T))


def subsystem_entropy(phi_ab: np.ndarray, rho: np.ndarray, da: int, db: int, keep: str) -> complex:
    """``-tr(tr_other(phi_AB rho_AB) ln rho_keep)`` on the support of rho_keep."""
    x = ptrace(phi_ab @ rho, da, db, keep)
    w, v = eigh(ptrace(rho, da, db, keep))
    f = np.where(w > SUPPORT, np.log(np.where(w > SUPPORT, w, 1.0)), 0.0)
    return -complex(np.trace(x @ (v * f) @ v.conj().T))


def report(rho, wa, wb, da: int, db: int) -> dict:
    """Every numeric field of a subadditivity report, real parts taken."""
    phi = np.kron(wa, wb)
    s_ab = entropy(phi, rho).real
    s_a = subsystem_entropy(phi, rho, da, db, "A").real
    s_b = subsystem_entropy(phi, rho, da, db, "B").real
    lhs = complex(np.trace(phi @ rho)).real
    rhs = (complex(np.trace(wa @ ptrace(rho, da, db, "A")))
           * complex(np.trace(wb @ ptrace(rho, da, db, "B")))).real
    return {"s_ab": s_ab, "s_a": s_a, "s_b": s_b, "gap": s_a + s_b - s_ab,
            "condition_lhs": lhs, "condition_rhs": rhs, "condition_gap": lhs - rhs}


def channel(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``P rho P / tr(P rho P)``."""
    prp = p @ rho @ p
    return prp / np.trace(prp).real


def _xlnx(x):
    return np.where(x > SUPPORT, x * np.log(np.where(x > SUPPORT, x, 1.0)), 0.0)


def _ln(x):
    return np.where(x > SUPPORT, np.log(np.where(x > SUPPORT, x, 1.0)), 0.0)


def diagonal_reports(p: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> dict:
    """Report fields for states and weights diagonal in one product basis.

    ``p`` is (n, da, db) joint probabilities, ``fa`` (n, da) and ``fb``
    (n, db) the weight spectra. For commuting diagonals every trace above is
    a sum over the basis, evaluated here over whole stacks at once.
    """
    w = fa[:, :, None] * fb[:, None, :]
    pa, pb = p.sum(axis=2), p.sum(axis=1)
    s_ab = -(w * _xlnx(p)).sum(axis=(1, 2))
    s_a = -((w * p).sum(axis=2) * _ln(pa)).sum(axis=1)
    s_b = -((w * p).sum(axis=1) * _ln(pb)).sum(axis=1)
    lhs = (w * p).sum(axis=(1, 2))
    rhs = (fa * pa).sum(axis=1) * (fb * pb).sum(axis=1)
    return {"s_ab": s_ab, "s_a": s_a, "s_b": s_b, "gap": s_a + s_b - s_ab,
            "condition_lhs": lhs, "condition_rhs": rhs, "condition_gap": lhs - rhs}


def qutrit_mi(p1, p2, phi1, phi2, chi1, chi2) -> np.ndarray:
    """Mutual information of diag(p1, p2, 1 - p1 - p2, 0) under diagonal weights."""
    p1, p2, phi1, phi2, chi1, chi2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p1, p2, phi1, phi2, chi1, chi2)))
    p = np.stack([p1, p2, 1.0 - p1 - p2, np.zeros_like(p1)], axis=-1).reshape(-1, 2, 2)
    fa = np.stack([phi1, phi2], axis=-1).reshape(-1, 2)
    fb = np.stack([chi1, chi2], axis=-1).reshape(-1, 2)
    return diagonal_reports(p, fa, fb)["gap"].reshape(p1.shape)


def self_test() -> list[str]:
    """Check the oracle against the paper before trusting it; return problems."""
    problems = []
    mi = float(qutrit_mi(0.1, 0.1, 0.75, 0.25, 1 / 3, 2 / 3))
    if abs(mi - 0.0728) > 5e-5:
        problems.append(f"worked example gives I = {mi}, paper says 0.0728")
    rng = np.random.default_rng(12345)
    for _ in range(8):
        p = rng.dirichlet(np.ones(3))
        f1, f2, c1, c2 = rng.uniform(0.05, 2.0, 4)
        rho = np.diag([p[0], p[1], p[2], 0.0]).astype(complex)
        wa, wb = np.diag([f1, f2]).astype(complex), np.diag([c1, c2]).astype(complex)
        dense = report(rho, wa, wb, 2, 2)
        identity = p[1] * (1 - p[0] - p[1]) * (f1 - f2) * (c2 - c1)
        if abs(dense["condition_gap"] - identity) > 1e-14:
            problems.append(f"condition gap {dense['condition_gap']} != identity {identity}")
        diag = diagonal_reports(np.array([[[p[0], p[1]], [p[2], 0.0]]]),
                                np.array([[f1, f2]]), np.array([[c1, c2]]))
        for k, v in diag.items():
            if abs(v[0] - dense[k]) > 1e-13:
                problems.append(f"diagonal and dense oracle disagree on {k}")
    return problems
