"""Subadditivity checks and randomized audits.

Nothing here asserts: every check returns a report with the numbers and the
boolean verdicts, and the audit collects violations instead of raising.
One engine over stacks fills every report, one item for ``check_subadditivity``
and a whole sample for the general audit; the diagonal regimes have a mirror.
It is the one matrix path: the weighted mutual information is a report's
``gap`` and the trace condition its ``condition_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import DEFAULT_TOL, SpectralDecomposition, _eigh, _kron, _ln_support, _trace_product, _xlnx
from .linalg import partial_trace
from .states import DEFAULT_SCALE_RANGE, BipartiteState, WeightMatrix
from .states import _density_stack, _nonnegative_weights, _positive_tol, _simplex, _weight_stack
from .entropy import _joint_entropy, _subsystem_entropy

AUDIT_REGIMES = (
    "diagonal-condition-satisfying",
    "diagonal-unconstrained",
    "general-unconstrained",
)


class WeightCondition(NamedTuple):
    value: float
    holds: bool


def qutrit_weight_condition(phi1: float, phi2: float, chi1: float, chi2: float) -> WeightCondition:
    """Sign test ``(phi1 - phi2)(chi2 - chi1) >= 0`` for embedded qutrits; weights nonnegative and finite."""
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    value = (f1 - f2) * (c2 - c1)
    return WeightCondition(float(value), bool(value >= 0.0))


def qutrit_condition_gap(p1, p2, phi1, phi2, chi1, chi2):
    """Trace-condition gap of an embedded qutrit in product form.

    Equals the ``condition_gap`` of :func:`check_subadditivity` on the
    embedded state: ``p2 (1 - p1 - p2) (phi1 - phi2) (chi2 - chi1)``.
    """
    p1v, p2v = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    p1v, p2v, p3 = _simplex(p1v, p2v, 1.0 - p1v - p2v)
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    out = p2v * p3 * (f1 - f2) * (c2 - c1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SubadditivityReport:
    s_ab: float
    s_a: float
    s_b: float
    gap: float
    condition_lhs: float
    condition_rhs: float
    condition_gap: float
    condition_holds: bool
    subadditivity_holds: bool
    tolerance: float


def _fields(s_ab, s_a, s_b, lhs, rhs) -> dict[str, np.ndarray]:
    """The seven numeric report fields, keyed and ordered as in :class:`SubadditivityReport`."""
    return dict(s_ab=s_ab, s_a=s_a, s_b=s_b, gap=s_a + s_b - s_ab,
                condition_lhs=lhs, condition_rhs=rhs, condition_gap=lhs - rhs)


def _report_fields(rho: np.ndarray, spectrum: SpectralDecomposition, phi_a: np.ndarray, phi_b: np.ndarray,
                   dim_a: int, dim_b: int, leak_tol: float) -> dict[str, np.ndarray]:
    """Report fields of ``(..., d, d)`` stacks (``spectrum`` decomposes ``rho``), each partial trace taken once.

    Raises if any item leaks over ``leak_tol`` off a reduced support.
    """
    phi = _kron(phi_a, phi_b)
    weighted = phi @ rho
    rho_a = partial_trace(rho, dim_a, dim_b, "A")
    rho_b = partial_trace(rho, dim_a, dim_b, "B")
    s_ab = _joint_entropy(phi, spectrum)
    s_a = _subsystem_entropy(partial_trace(weighted, dim_a, dim_b, "A"), rho_a, leak_tol)
    s_b = _subsystem_entropy(partial_trace(weighted, dim_a, dim_b, "B"), rho_b, leak_tol)
    # the trace condition compares tr(phi_AB rho_AB) with tr(phi_A rho_A) tr(phi_B rho_B)
    lhs = _trace_product(phi, rho).real
    rhs = _trace_product(phi_a, rho_a).real * _trace_product(phi_b, rho_b).real
    return _fields(s_ab, s_a, s_b, lhs, rhs)


def _reports(columns: dict[str, list[float]], tolerance: float) -> list[SubadditivityReport]:
    """One report per item of ``columns`` (a Python-float list per field, in :func:`_fields` order).

    Built positionally; the verdicts compare against ``-tolerance``.
    """
    condition_holds = [c >= -tolerance for c in columns["condition_gap"]]
    subadditivity_holds = [g >= -tolerance for g in columns["gap"]]
    return list(map(SubadditivityReport, *columns.values(), condition_holds, subadditivity_holds,
                    repeat(tolerance)))


def check_subadditivity(weight_a: WeightMatrix, weight_b: WeightMatrix,
                        state: BipartiteState) -> SubadditivityReport:
    """Full report: entropies, gap, trace condition, verdicts.

    Everything is judged at the ``tol`` the state was validated with, which
    the report carries as ``tolerance``: both verdicts compare their gap
    against ``-tol``, so a marginal negative within noise still counts as
    holding, and ``tol`` bounds off-support mass.
    """
    if weight_a.dim != state.dim_a or weight_b.dim != state.dim_b:
        raise DimensionError(f"weight dims {weight_a.dim}x{weight_b.dim} do not match "
                             f"state factors {state.dim_a}x{state.dim_b}")
    rho = state.rho
    fields = _report_fields(rho.matrix, rho.spectrum, weight_a.matrix, weight_b.matrix,
                            state.dim_a, state.dim_b, rho.tol)
    return _reports({k: [float(v)] for k, v in fields.items()}, rho.tol)[0]


@dataclass(frozen=True)
class ViolationRecord:
    state: np.ndarray
    weight_a: np.ndarray
    weight_b: np.ndarray
    report: SubadditivityReport


@dataclass(frozen=True)
class AuditSummary:
    samples: int
    violations: tuple[ViolationRecord, ...]
    min_gap: float
    seed: int
    regime: str


def _diagonal_report_fields(probs: np.ndarray, weights: np.ndarray) -> dict[str, np.ndarray]:
    """Report fields for embedded-qutrit states under diagonal weights.

    ``probs`` is (n, 3) simplex rows, ``weights`` is (n, 4) columns
    (phi1, phi2, chi1, chi2). Mirrors the matrix path term by term, support
    conventions keyed on the same eigenvalues.
    """
    p1, p2, p3 = probs[:, 0], probs[:, 1], probs[:, 2]
    f1, f2, c1, c2 = weights[:, 0], weights[:, 1], weights[:, 2], weights[:, 3]
    # each support log and each weighted probability w_ij p_k is formed once and shared by the
    # fields, in the operation order of separate terms, so every sum rounds alike; intermediates
    # are dropped once spent, which keeps the peak memory of the separate terms
    ln2, ln3 = _ln_support(p2), _ln_support(p3)
    w11, w12, w21 = f1 * c1, f1 * c2, f2 * c1
    s_ab = -(w11 * _xlnx(p1) + w12 * (p2 * ln2) + w21 * (p3 * ln3))
    m1, m2, m3 = w11 * p1, w12 * p2, w21 * p3
    del w11, w12, w21
    m12 = m1 + m2
    lhs = m12 + m3
    a1, b1 = p1 + p2, p1 + p3
    s_a = -(m12 * _ln_support(a1) + m3 * ln3)
    del m12
    s_b = -((m1 + m3) * _ln_support(b1) + m2 * ln2)
    del m1, m2, m3, ln2, ln3
    rhs = (f1 * a1 + f2 * p3) * (c1 * b1 + c2 * p2)
    return _fields(s_ab, s_a, s_b, lhs, rhs)


def _diag_stack(rows: np.ndarray) -> np.ndarray:
    """``(k, m)`` rows as a ``(k, m, m)`` stack of complex diagonal matrices."""
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=complex)
    np.einsum("...ii->...i", out)[...] = rows
    return out


def _sample_diagonal(rng: np.random.Generator, n: int, condition_satisfying: bool):
    probs = rng.standard_exponential((n, 3))
    # normalized in place, the row sum term by term: a reduction over the length-3 axis
    # cost as much as the rest of the sampler
    probs /= (probs[:, 0] + probs[:, 1] + probs[:, 2])[:, None]
    lo, hi = DEFAULT_SCALE_RANGE
    weights = rng.uniform(lo, hi, size=(n, 4))
    # resample weight rows until (phi1 - phi2)(chi2 - chi1) >= 0; only redrawn rows can change
    w, rows = weights, np.arange(n)
    while condition_satisfying and (rows := rows[(w[:, 0] - w[:, 1]) * (w[:, 3] - w[:, 2]) < 0.0]).size:
        weights[rows] = w = rng.uniform(lo, hi, size=(rows.size, 4))
    return probs, weights


def audit_random(
    n: int,
    dim_a: int,
    dim_b: int,
    seed: int,
    regime: str,
    tolerance: float = DEFAULT_TOL,
) -> AuditSummary:
    """Sample n (state, weights) pairs and collect subadditivity violations.

    Regimes:

    - ``diagonal-condition-satisfying``: embedded-qutrit states (a zero
      fourth level) with diagonal weights resampled until the sign condition
      holds. The inequality is a theorem here; violations mean a bug.
    - ``diagonal-unconstrained``: same family, weights unconstrained, so
      genuine violations are expected and get recorded.
    - ``general-unconstrained``: dense random states and weights of any
      requested factor dims, drawn as stacks and run through one engine call.

    The diagonal regimes model the zero-padded qutrit family, which is what
    the sign condition is about, so they require 2x2 factors.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    _positive_tol(tolerance, "tolerance")
    if regime not in AUDIT_REGIMES:
        raise ValidationError(f"unknown regime {regime!r}, expected one of {AUDIT_REGIMES}")
    if dim_a < 2 or dim_b < 2:
        raise ValidationError(f"factor dims must be >= 2, got {dim_a}x{dim_b}")
    rng = np.random.default_rng(seed)

    if regime == "general-unconstrained":
        rho = _density_stack(rng, n, dim_a * dim_b)
        wa = _weight_stack(rng, n, dim_a)
        wb = _weight_stack(rng, n, dim_b)
        # the draws are hermitized, so they are diagonalized unchecked; off-support
        # mass is judged at the audit's tolerance
        fields = _report_fields(rho, _eigh(rho), wa, wb, dim_a, dim_b, tolerance)

        def matrices(idx):
            return rho[idx], wa[idx], wb[idx]
    else:
        if dim_a != 2 or dim_b != 2:
            raise DimensionError(f"regime {regime!r} needs 2x2 factors, got {dim_a}x{dim_b}")
        probs, weights = _sample_diagonal(rng, n, regime == "diagonal-condition-satisfying")
        fields = _diagonal_report_fields(probs, weights)

        def matrices(idx):
            p, w = np.pad(probs[idx], ((0, 0), (0, 1))), weights[idx]
            return _diag_stack(p), _diag_stack(w[:, :2]), _diag_stack(w[:, 2:])

    gap = fields["gap"]
    idx = np.flatnonzero(gap < -tolerance)
    # each record holds its own item of the (k, d, d) stacks; each field is read once, as a list
    reports = _reports({k: v[idx].tolist() for k, v in fields.items()}, tolerance)
    violations = tuple(map(ViolationRecord, *matrices(idx), reports))
    return AuditSummary(n, violations, float(gap.min()), seed, regime)
