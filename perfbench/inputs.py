"""Seeded inputs, drawn with the benchmark's own generator.

The program only ever receives the matrices built here (or an audit seed),
never this module's random state. Every case carries what the oracle and the
property checks need: its kind, factor dims and, for the commuting family,
the shared local frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_RANGE = (0.05, 2.0)
# Floor on every nonzero probability, so no eigenvalue lands near the
# program's 1e-12 support threshold and support decisions never depend on
# the eigensolver's last bits.
PROB_FLOOR = 0.02


@dataclass
class Case:
    kind: str  # frame-full, frame-joint-deficient, frame-marginal-deficient, product, ginibre
    da: int
    db: int
    rho: np.ndarray
    wa: np.ndarray
    wb: np.ndarray
    frame: np.ndarray | None = None  # U_A (x) U_B for the commuting family
    probs: np.ndarray | None = None

    @property
    def commuting(self) -> bool:
        return self.frame is not None


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def in_frame(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    return hermitize((u * spectrum) @ u.conj().T)


def ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = z @ z.conj().T
    return hermitize(w / np.trace(w).real)


def simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    e = rng.standard_exponential(n)
    return PROB_FLOOR / n + (1.0 - PROB_FLOOR) * e / e.sum()


def weight(rng: np.random.Generator, d: int, u: np.ndarray | None = None) -> np.ndarray:
    return in_frame(haar(rng, d) if u is None else u, rng.uniform(*WEIGHT_RANGE, d))


def frame_case(rng: np.random.Generator, da: int, db: int, deficiency: str = "full") -> Case:
    """State and weights diagonal in one random local frame U_A (x) U_B.

    ``deficiency`` "joint" zeroes the last product-basis level, like the
    zero-padded qutrit; "marginal" zeroes a whole row, so rho_A is singular.
    """
    ua, ub = haar(rng, da), haar(rng, db)
    p = simplex(rng, da * db).reshape(da, db)
    if deficiency == "joint":
        p[-1, -1] = 0.0
    elif deficiency == "marginal":
        p[-1, :] = 0.0
    p /= p.sum()
    u = np.kron(ua, ub)
    kind = "frame-full" if deficiency == "full" else f"frame-{deficiency}-deficient"
    return Case(kind, da, db, in_frame(u, p.ravel()), weight(rng, da, ua), weight(rng, db, ub),
                frame=u, probs=p)


def product_case(rng: np.random.Generator, da: int, db: int) -> Case:
    """rho_A (x) rho_B under dense weights in independent frames."""
    rho = hermitize(np.kron(ginibre(rng, da), ginibre(rng, db)))
    return Case("product", da, db, rho, weight(rng, da), weight(rng, db))


def ginibre_case(rng: np.random.Generator, da: int, db: int) -> Case:
    """Dense Ginibre state under identity weights."""
    return Case("ginibre", da, db, ginibre(rng, da * db),
                np.eye(da, dtype=complex), np.eye(db, dtype=complex))


def check_cases(rng: np.random.Generator, da: int, db: int) -> list[Case]:
    """One check of each kind, in a fixed order."""
    return [frame_case(rng, da, db, "full"), frame_case(rng, da, db, "joint"),
            frame_case(rng, da, db, "marginal"), product_case(rng, da, db),
            ginibre_case(rng, da, db)]


def frame_projector(rng: np.random.Generator, case: Case, rank: int) -> np.ndarray:
    """Rank-``rank`` projector onto product-frame levels holding >= 5% of the state."""
    p = case.probs.ravel()
    while True:
        mask = np.zeros(p.size)
        mask[rng.choice(p.size, size=rank, replace=False)] = 1.0
        if (mask * p).sum() >= 0.05:
            return in_frame(case.frame, mask)


def condition_weights(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Diagonal qutrit weights (phi1, phi2, chi1, chi2) meeting the sign condition."""
    phi1, phi2, chi1, chi2 = rng.uniform(*WEIGHT_RANGE, 4)
    if (phi1 - phi2) * (chi2 - chi1) < 0.0:
        chi1, chi2 = chi2, chi1
    return float(phi1), float(phi2), float(chi1), float(chi2)
