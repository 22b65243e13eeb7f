"""Output checks: the program's numbers against the oracle, plus the paper's properties.

Each check returns a list of problems; an empty list means the output is
right. Reports may be ``SubadditivityReport`` objects or the CLI's JSON dicts.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

FIELDS = ("s_ab", "s_a", "s_b", "gap", "condition_lhs", "condition_rhs", "condition_gap")
# Agreement required between program and oracle; far below the 1e-6 error
# the benchmark plants to show the checks are not vacuous.
ATOL = 1e-9


def field(report, name):
    return report[name] if isinstance(report, dict) else getattr(report, name)


def close(got: float, ref: float, atol: float = ATOL) -> bool:
    return abs(got - ref) <= atol * (1.0 + abs(ref))


def report_problems(rep, ref: dict, what: str) -> list[str]:
    """Every numeric field against the oracle, verdicts against the tolerance."""
    out = [f"{what}: {k} = {field(rep, k)!r}, oracle {ref[k]!r}"
           for k in FIELDS if not close(float(field(rep, k)), ref[k])]
    tol = float(field(rep, "tolerance"))
    for verdict, k in (("condition_holds", "condition_gap"), ("subadditivity_holds", "gap")):
        if abs(ref[k] + tol) > ATOL and bool(field(rep, verdict)) != (ref[k] >= -tol):
            out.append(f"{what}: {verdict} = {field(rep, verdict)} with oracle {k} {ref[k]!r}")
    return out


def property_problems(rep, kind: str, commuting: bool, what: str) -> list[str]:
    """The paper's claims that hold for this kind of input whatever the numbers."""
    gap, tol = float(field(rep, "gap")), float(field(rep, "tolerance"))
    out = []
    if kind == "ginibre" and gap < -tol:
        out.append(f"{what}: identity-weight gap {gap!r} is negative")
    if kind == "product" and abs(gap) > ATOL:
        out.append(f"{what}: product state does not saturate (gap {gap!r})")
    if commuting and field(rep, "condition_holds") and not field(rep, "subadditivity_holds"):
        out.append(f"{what}: condition holds but subadditivity fails in the commuting family")
    return out


def check_case(rep, case, what: str) -> list[str]:
    ref = oracle.report(case.rho, case.wa, case.wb, case.da, case.db)
    return report_problems(rep, ref, what) + property_problems(rep, case.kind, case.commuting, what)


def matrix_problems(got: np.ndarray, ref: np.ndarray, what: str) -> list[str]:
    err = float(np.abs(np.asarray(got) - ref).max())
    return [] if err <= ATOL else [f"{what}: matrix differs from the oracle by {err:.3e}"]


def audit_problems(samples, seed, regime, min_gap, violations, n, want_seed, want_regime,
                   tol, what) -> list[str]:
    """An audit summary; ``violations`` is a list of (state, wa, wb, report)."""
    out = []
    if (samples, seed, regime) != (n, want_seed, want_regime):
        out.append(f"{what}: summary echoes {(samples, seed, regime)}, "
                   f"asked for {(n, want_seed, want_regime)}")
    if not math.isfinite(min_gap):
        return out + [f"{what}: min_gap {min_gap!r} is not finite"]
    if violations:
        gaps = [float(field(v[3], "gap")) for v in violations]
        if min_gap != min(gaps):
            out.append(f"{what}: min_gap {min_gap!r} is not the smallest violation gap {min(gaps)!r}")
        if max(gaps) >= -tol or any(field(v[3], "subadditivity_holds") for v in violations):
            out.append(f"{what}: a recorded violation does not violate")
    elif min_gap < -tol:
        out.append(f"{what}: min_gap {min_gap!r} below tolerance but no violation recorded")
    if regime == "diagonal-condition-satisfying" and violations:
        out.append(f"{what}: {len(violations)} violations where the sign condition holds")
    if not violations:
        return out
    if regime.startswith("diagonal"):
        if any(field(v[3], "condition_holds") for v in violations):
            out.append(f"{what}: a diagonal violation passes its trace condition")
        out += diagonal_reproduce(violations, what)
    else:
        for i, (rho, wa, wb, rep) in enumerate(violations):
            da, db = wa.shape[0], wb.shape[0]
            out += report_problems(rep, oracle.report(rho, wa, wb, da, db), f"{what} violation {i}")
    return out


def diagonal_reproduce(violations, what: str) -> list[str]:
    """Recompute every diagonal violation at once through the oracle."""
    rho = np.array([v[0] for v in violations])
    wa = np.array([v[1] for v in violations])
    wb = np.array([v[2] for v in violations])
    off = max(float(np.abs(m - np.einsum("nii->ni", m)[:, :, None] * np.eye(m.shape[1])).max())
              for m in (rho, wa, wb))
    if off > 0.0:
        return [f"{what}: recorded diagonal-regime matrices have off-diagonal entries ({off:.3e})"]
    p = np.einsum("nii->ni", rho).real.reshape(-1, wa.shape[1], wb.shape[1])
    ref = oracle.diagonal_reports(p, np.einsum("nii->ni", wa).real, np.einsum("nii->ni", wb).real)
    got = np.array([[float(field(v[3], k)) for k in FIELDS] for v in violations])
    want = np.stack([ref[k] for k in FIELDS], axis=1)
    bad = np.abs(got - want) > ATOL * (1.0 + np.abs(want))
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        return [f"{what}: {int(bad.any(axis=1).sum())} violations disagree with the oracle, "
                f"first #{i} {FIELDS[j]} = {got[i, j]!r} vs {want[i, j]!r}"]
    return []


def csv_problems(text: str, grid: str, params: tuple, n: int, what: str) -> list[str]:
    """A rendered grid: row count, axes, values >= 0 and equal to the oracle.

    ``grid`` is "prob" with params (phi1, phi2, chi1, chi2), or "weight-a" /
    "weight-b" with params (p1, p2).
    """
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header, rows = body[0], body[1:]
    if grid == "prob":
        k = np.arange(n)
        c = (k + 0.5) / n
        i, j = np.nonzero(k[:, None] + k[None, :] + 1 < n)
        want_header, x, y = "p1,p2,I", c[i], c[j]
        want_rows = n * (n - 1) // 2
    else:
        f_lo, c_lo = (0.5, 0.0) if grid == "weight-a" else (0.0, 0.5)
        f, c = np.meshgrid(np.linspace(f_lo, f_lo + 0.5, n), np.linspace(c_lo, c_lo + 0.5, n),
                           indexing="ij")
        want_header, x, y = "phi1,chi1,I", f.ravel(), c.ravel()
        want_rows = n * n
    if header != want_header or len(rows) != want_rows:
        return [f"{what}: header {header!r} with {len(rows)} rows, "
                f"expected {want_header!r} with {want_rows}"]
    v = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 3)
    if np.abs(v[:, 0] - x).max() > 1e-15 or np.abs(v[:, 1] - y).max() > 1e-15:
        return [f"{what}: grid coordinates differ from the documented axes"]
    if grid == "prob":
        ref = oracle.qutrit_mi(v[:, 0], v[:, 1], *params)
    else:
        ref = oracle.qutrit_mi(params[0], params[1], v[:, 0], 1.0 - v[:, 0], v[:, 1], 1.0 - v[:, 1])
    out = []
    err = np.abs(v[:, 2] - ref)
    if err.max() > ATOL * 1e-3:
        out.append(f"{what}: {int((err > ATOL * 1e-3).sum())} values differ from the oracle "
                   f"(worst {err.max():.3e})")
    if v[:, 2].min() < -1e-12:
        out.append(f"{what}: negative mutual information {v[:, 2].min()!r} under the sign condition")
    return out
