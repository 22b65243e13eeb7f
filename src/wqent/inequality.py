"""Subadditivity checks and randomized audits.

Nothing here asserts: every check returns a report with the numbers and the
boolean verdicts, and the audit collects violations instead of raising.
One engine over stacks fills every report, one item for ``check_subadditivity``
and one chunk of samples at a time for the general audit; the diagonal regimes
have one kernel over the occupied cells of a diagonal state, at any factor dims,
run once per chunk. It is the one matrix path: the weighted mutual information
is a report's ``gap`` and the trace condition its ``condition_gap``. An audit
scans the gap of every sample and joins its violators' rows of the chunks once,
into one table of report fields and matrices; records are built when first read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import cached_property, lru_cache, partial
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import DEFAULT_TOL, SpectralDecomposition, _eigh, _kron, _ln_support, _partial_trace, _positive_tol
from .linalg import _trace_product, _within_noise
from .states import BipartiteState, WeightMatrix
from .states import _density_stack, _finite, _floats, _nonnegative_weights, _scale_draws, _simplex, _weight_stack
from .entropy import _joint_entropy, _subsystem_entropy

AUDIT_REGIMES = (
    "diagonal-condition-satisfying",
    "diagonal-unconstrained",
    "general-unconstrained",
)

# complex entries of one chunk's (k, d, d) state stack: an audit evaluates its sample
# in chunks of this many entries, so its working memory does not grow with n
_CHUNK_ENTRIES = 1 << 17


class WeightCondition(NamedTuple):
    value: float
    holds: bool


def qutrit_weight_condition(phi1: float, phi2: float, chi1: float, chi2: float) -> WeightCondition:
    """Sign test ``(phi1 - phi2)(chi2 - chi1) >= 0`` for embedded qutrits; weights nonnegative and finite,
    and the product finite too."""
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    with np.errstate(over="ignore"):
        value = _finite((f1 - f2) * (c2 - c1), "the weight condition")
    return WeightCondition(float(value), bool(value >= 0.0))


def qutrit_condition_gap(p1, p2, phi1, phi2, chi1, chi2):
    """Trace-condition gap of an embedded qutrit in product form.

    Equals the ``condition_gap`` of :func:`check_subadditivity` on the
    embedded state: ``p2 (1 - p1 - p2) (phi1 - phi2) (chi2 - chi1)``. Weights too large
    for a finite gap raise.
    """
    p1v, p2v = _floats(p1, p2)
    p1v, p2v, p3 = _simplex(p1v, p2v, 1.0 - p1v - p2v)
    f1, f2, c1, c2 = _nonnegative_weights(phi1, phi2, chi1, chi2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _finite(p2v * p3 * (f1 - f2) * (c2 - c1), "the trace-condition gap")
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


_REPORT_NAMES = tuple(f.name for f in dataclass_fields(SubadditivityReport))


def _fields(s_ab, s_a, s_b, lhs, rhs) -> dict[str, np.ndarray]:
    """The seven numeric report fields, keyed and ordered as in :class:`SubadditivityReport`."""
    return dict(s_ab=s_ab, s_a=s_a, s_b=s_b, gap=s_a + s_b - s_ab,
                condition_lhs=lhs, condition_rhs=rhs, condition_gap=lhs - rhs)


def _report_fields(rho: np.ndarray, spectrum: SpectralDecomposition, phi_a: np.ndarray, phi_b: np.ndarray,
                   dim_a: int, dim_b: int, tol: float) -> dict[str, np.ndarray]:
    """Report fields of the engine's own ``(..., d, d)`` stacks (``spectrum`` decomposes ``rho``).

    Each partial trace is taken once and unchecked. Raises if A's, then B's, largest off-support weighted
    mass is beyond noise at ``tol``, and if finite weights overflow a float in their product or in a field.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _finite(_kron(phi_a, phi_b), "the weight product phi_A (x) phi_B")
        weighted = phi @ rho
        rho_a = _partial_trace(rho, dim_a, dim_b, "A")
        rho_b = _partial_trace(rho, dim_a, dim_b, "B")
        s_ab = _joint_entropy(phi, spectrum)
        s_a, leak_a = _subsystem_entropy(_partial_trace(weighted, dim_a, dim_b, "A"), rho_a)
        s_b, leak_b = _subsystem_entropy(_partial_trace(weighted, dim_a, dim_b, "B"), rho_b)
        # the trace condition compares tr(phi_AB rho_AB) with tr(phi_A rho_A) tr(phi_B rho_B)
        lhs = _trace_product(phi, rho).real
        rhs = _trace_product(phi_a, rho_a).real * _trace_product(phi_b, rho_b).real
        fields = _fields(s_ab, s_a, s_b, lhs, rhs)
    for leak in (leak_a, leak_b):
        # a NaN leak comes only from an overflowed weighted state: it passes, for the check below to name
        if not (_within_noise(leak, 1.0, tol) or np.isnan(leak)):
            raise ValidationError(f"reduced weighted state has {leak:.3e} of mass outside the support "
                                  "of the reduced state")
    _finite(list(fields.values()), "the subadditivity report")
    return fields


def _holds(gap, tolerance: float):
    """Each verdict, elementwise: ``gap`` is at least ``-tolerance`` (the noise rule at scale 1; NaN fails)."""
    return _within_noise(-gap, 1.0, tolerance)


def _verdicts(fields: dict[str, np.ndarray], tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """``condition_holds`` and ``subadditivity_holds`` of each item: :func:`_holds` of its two gaps."""
    return _holds(fields["condition_gap"], tolerance), _holds(fields["gap"], tolerance)


def _reports(fields: dict[str, np.ndarray], tolerance: float) -> list[SubadditivityReport]:
    """One report per item of ``fields`` (a ``(k,)`` array per field, in :func:`_fields` order).

    The fields become Python floats and the verdicts (:func:`_verdicts`) Python bools. Each report
    is built the way ``pickle`` rebuilds one, by filling its ``__dict__``, which skips the frozen
    ``__init__``'s one ``object.__setattr__`` per field. The slots are stored one key at a time, in
    field order, which took half as long as ``__dict__.update(zip(names, row))``.
    """
    new, out = object.__new__, []
    for row in zip(*(v.tolist() for v in fields.values()), *(v.tolist() for v in _verdicts(fields, tolerance))):
        report = new(SubadditivityReport)
        d = report.__dict__
        (d["s_ab"], d["s_a"], d["s_b"], d["gap"], d["condition_lhs"], d["condition_rhs"], d["condition_gap"],
         d["condition_holds"], d["subadditivity_holds"]) = row
        d["tolerance"] = tolerance
        out.append(report)
    return out


def check_subadditivity(weight_a: WeightMatrix, weight_b: WeightMatrix,
                        state: BipartiteState) -> SubadditivityReport:
    """Full report: entropies, gap, trace condition, verdicts.

    Everything is judged at the ``tol`` the state was validated with, which
    the report carries as ``tolerance``, by the noise rule at scale 1: a verdict
    holds while its gap is at least ``-tol``, so a marginal negative within
    noise still counts as holding, and ``tol`` bounds off-support mass.
    """
    if weight_a.dim != state.dim_a or weight_b.dim != state.dim_b:
        raise DimensionError(f"weight dims {weight_a.dim}x{weight_b.dim} do not match "
                             f"state factors {state.dim_a}x{state.dim_b}")
    rho = state.rho
    fields = _report_fields(rho.matrix, rho.spectrum, weight_a.matrix, weight_b.matrix,
                            state.dim_a, state.dim_b, rho.tol)
    return _reports({k: v[None] for k, v in fields.items()}, rho.tol)[0]


def _same(ours, theirs) -> bool:
    """Item by item equality, arrays by ``np.array_equal``."""
    return len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))


@dataclass(frozen=True, eq=False)
class ViolationRecord:
    state: np.ndarray
    weight_a: np.ndarray
    weight_b: np.ndarray
    report: SubadditivityReport

    def __eq__(self, other):
        values = operator.attrgetter("state", "weight_a", "weight_b", "report")
        return type(other) is ViolationRecord and _same(values(self), values(other))


@dataclass(frozen=True, eq=False)
class AuditSummary:
    """An audit's head, and its violators' table as the audit built it: ``(fields, (state, weight_a,
    weight_b))``, one row per violator in sample order, judged at ``tolerance``; ``None`` without any.
    ``violations`` builds their records on first read and keeps that tuple; ``==`` and ``repr`` build none."""

    samples: int
    min_gap: float
    seed: int
    regime: str
    tolerance: float
    columns: tuple | None = field(repr=False)

    @cached_property
    def violations(self) -> tuple[ViolationRecord, ...]:
        if self.columns is None:
            return ()
        fields, matrices = self.columns
        records, new = [], object.__new__
        for row in zip(*matrices, _reports(fields, self.tolerance)):
            record = new(ViolationRecord)
            d = record.__dict__
            d["state"], d["weight_a"], d["weight_b"], d["report"] = row
            records.append(record)
        return tuple(records)

    def __eq__(self, other):
        def values(s):
            fields, matrices = s.columns or ({}, ())
            return [s.samples, s.min_gap, s.seed, s.regime, s.tolerance, *fields.values(), *matrices]

        return type(other) is AuditSummary and _same(values(self), values(other))


@lru_cache(maxsize=None)
def _cell_groups(dim_a: int, dim_b: int) -> tuple[tuple[range, ...], tuple[range, ...]]:
    """The occupied cells of each row of A and of each column of B, in cell order.

    Cell ``c`` is ``divmod(c, dim_b)``; the last cell is the zero level, so it is in no group.
    """
    cells = range(dim_a * dim_b - 1)
    return (tuple(cells[a * dim_b:(a + 1) * dim_b] for a in range(dim_a)),
            tuple(cells[b::dim_b] for b in range(dim_b)))


def _sum(terms: list[np.ndarray]) -> np.ndarray:
    """The terms summed left to right into a new array; a single term is returned as it is."""
    return sum(terms[1:], terms[0])


def _diagonal_entropy_terms(p: np.ndarray, weights: np.ndarray, dim_a: int, dim_b: int):
    """Entropy sums ``(x_ab, x_a, x_b)`` of diagonal ``dim_a x dim_b`` states with a zero last cell.

    Each entropy of the report is ``0.0 - x``. The states are cell-major: row ``c`` of
    ``p (dim_a dim_b - 1, n)`` holds cell ``divmod(c, dim_b)`` of every state. ``weights (n,
    dim_a + dim_b)`` holds one state's phi, then chi, per row. Each sum runs left to right in cell
    order, with support conventions keyed on the same eigenvalues as the matrix path. A row or
    column term is its masses ``w_ab p_c`` summed, times the support log of its marginal, which
    for a one-cell group is its cell's log.
    """
    rows, cols = _cell_groups(dim_a, dim_b)
    # the weights stay strided views: copying them made the kernel about 14% slower at 2x2
    phi, chi = weights[:, :dim_a].T, weights[:, dim_a:].T
    lns = _ln_support(p)
    # x_ab and each mass accumulate in place: as fresh arrays the kernel took about 9% longer at 2x2
    x_ab, masses = None, []
    for c, (q, ln) in enumerate(zip(p, lns)):
        t = q * ln
        mass = phi[c // dim_b] * chi[c % dim_b]
        t *= mass
        x_ab = t if x_ab is None else np.add(x_ab, t, out=x_ab)
        mass *= q  # w_ab p_c from here on
        masses.append(mass)
    x_a, x_b = (_sum([_sum([masses[c] for c in g])
                      * (lns[g[0]] if len(g) == 1 else _ln_support(_sum([p[c] for c in g]))) for g in groups])
                for groups in (rows, cols))
    return x_ab, x_a, x_b


def _diagonal_report_fields(probs: np.ndarray, weights: np.ndarray, dim_a: int, dim_b: int,
                            terms: tuple[np.ndarray, ...]) -> dict[str, np.ndarray]:
    """Report fields of diagonal states under diagonal weights, laid out as for
    :func:`_diagonal_entropy_terms`, from their entropy sums ``terms``."""
    x_ab, x_a, x_b = terms
    rows, cols = _cell_groups(dim_a, dim_b)
    p, phi, chi = probs.T, weights[:, :dim_a].T, weights[:, dim_a:].T
    lhs = _sum([phi[c // dim_b] * chi[c % dim_b] * q for c, q in enumerate(p)])
    # tr(phi_A rho_A) tr(phi_B rho_B), each marginal summed in cell order
    rhs = (_sum([f * _sum([p[c] for c in g]) for f, g in zip(phi, rows)])
           * _sum([x * _sum([p[c] for c in g]) for x, g in zip(chi, cols)]))
    # 0.0 - x instead of -x: an all-zero sum comes back as +0.0, not -0.0
    return _fields(0.0 - x_ab, 0.0 - x_a, 0.0 - x_b, lhs, rhs)


def _diag_stack(rows: np.ndarray) -> np.ndarray:
    """``(k, m)`` rows as a ``(k, m, m)`` stack of complex diagonal matrices."""
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=complex)
    np.einsum("...ii->...i", out)[...] = rows
    return out


def _failing_rows(w: np.ndarray) -> np.ndarray:
    """Indices of the 2x2 weight rows ``(phi1, phi2, chi1, chi2)`` with ``(phi1 - phi2)(chi2 - chi1) < 0``."""
    return ((w[:, 0] - w[:, 1]) * (w[:, 3] - w[:, 2]) < 0.0).nonzero()[0]


def _condition_satisfying_weights(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``n`` embedded-qutrit weight rows, each row redrawn until the sign condition holds.

    Every pass tests only its fresh draws and redraws its failing rows in row order. Both run in
    blocks of ``size`` rows, so no temporary grows with ``n``; the draws and their order are those
    of one redraw per pass. The first pass draws each block into the sample and tests it there,
    while it is in cache; each redrawn row is written once, as one item of a row view.
    """
    weights = np.empty((n, 4))
    items = weights.view(np.dtype((np.void, weights.itemsize * 4)))[:, 0]
    blocks = [weights[start:start + size] for start in range(0, n, size)]
    rows = np.concatenate([i * size + _failing_rows(_scale_draws(rng, w.shape, out=w)) for i, w in enumerate(blocks)])
    while rows.size:
        failing = []
        for start in range(0, rows.size, size):
            block = rows[start:start + size]
            w = _scale_draws(rng, (block.size, 4))
            items[block] = w.view(items.dtype)[:, 0]
            failing.append(block[_failing_rows(w)])
        rows = np.concatenate(failing)
    return weights


_Chunks = Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]


def _chunk_items(d: int) -> int:
    """Items per chunk for ``d x d`` states: ``_CHUNK_ENTRIES`` complex entries, at least one item."""
    return max(1, _CHUNK_ENTRIES // d**2)


def _diagonal_chunks(rng: np.random.Generator, n: int, dim_a: int, dim_b: int,
                     condition_satisfying: bool) -> _Chunks:
    """Each chunk's gap, and its normalized ``probs`` (one row per state), weights and entropy sums."""
    # every probability is drawn first, then the weights: the stream does not depend on the chunk
    # size, and as every field is elementwise, neither do its bits. Each row of probs is an unnormalized
    # diagonal state with a zero last cell, its cell c = divmod(c, dim_b) in column c
    probs = rng.standard_exponential((n, dim_a * dim_b - 1))
    size = _chunk_items(dim_a * dim_b)  # sized by the d x d state a record holds
    # the resampler redraws any row in any pass, so those weights exist whole before the scan;
    # unconstrained ones are drawn per chunk, one double per entry in row order as a whole draw takes
    weights = _condition_satisfying_weights(rng, n, size) if condition_satisfying else None
    for start in range(0, n, size):
        # the chunk as one contiguous row per cell, which the kernel reads a fifth faster than strided
        # columns, normalized there by each state's sum, taken left to right in cell order
        p = np.ascontiguousarray(probs[start:start + size].T)
        p /= _sum(list(p))
        w = _scale_draws(rng, (p.shape[1], dim_a + dim_b)) if weights is None else weights[start:start + size]
        x_ab, x_a, x_b = _diagonal_entropy_terms(p, w, dim_a, dim_b)
        # x_ab - (x_a + x_b) rounds as the report's s_a + s_b - s_ab does, since negation is exact
        yield x_ab - (x_a + x_b), (p.T, w, x_ab, x_a, x_b)


def _diagonal_table(dim_a: int, dim_b: int, p: np.ndarray, w: np.ndarray, *terms: np.ndarray):
    """The violators' report fields and ``(state, weight_a, weight_b)`` stacks from their diagonal rows."""
    # every field is elementwise, so the violators' rows of the chunks' sums give their bits
    matrices = _diag_stack(np.pad(p, ((0, 0), (0, 1)))), _diag_stack(w[:, :dim_a]), _diag_stack(w[:, dim_a:])
    return _diagonal_report_fields(p, w, dim_a, dim_b, terms), matrices


def _general_chunks(rng: np.random.Generator, n: int, dim_a: int, dim_b: int, tolerance: float) -> _Chunks:
    """Each chunk's gap, and its seven report fields and ``(state, weight_a, weight_b)`` stacks."""
    # each chunk draws its states, then its A weights, then its B weights, so the stream
    # is the whole-sample stream whenever n fits in one chunk
    size = _chunk_items(dim_a * dim_b)
    for start in range(0, n, size):
        k = min(size, n - start)
        rho = _density_stack(rng, k, dim_a * dim_b)
        wa = _weight_stack(rng, k, dim_a)
        wb = _weight_stack(rng, k, dim_b)
        # the draws are hermitized, so they are diagonalized unchecked; off-support
        # mass is judged at the audit's tolerance
        fields = _report_fields(rho, _eigh(rho), wa, wb, dim_a, dim_b, tolerance)
        yield fields["gap"], (*fields.values(), rho, wa, wb)


def _general_table(*rows: np.ndarray):
    """The violators' report fields and ``(state, weight_a, weight_b)`` stacks from their general rows."""
    return dict(zip(_REPORT_NAMES[:7], rows)), rows[7:]


def _scan(chunks: _Chunks, tolerance: float) -> tuple[list, list[np.ndarray]]:
    """Each chunk's smallest gap, and the violators' rows of each chunk array, joined across chunks
    (empty without violators): copies taken by index, so nothing kept refers to the sample."""
    mins, kept = [], []
    for gap, arrays in chunks:
        mins.append(gap.min())
        # no gap is NaN: general fields pass _finite in _report_fields, and the diagonal sums are finite
        if not _holds(mins[-1], tolerance):
            idx = (~_holds(gap, tolerance)).nonzero()[0]
            kept.append([a[idx] for a in arrays])
    return mins, [np.concatenate(rows) for rows in zip(*kept)]


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
      holds. The inequality is a theorem here; violations mean a bug. The
      sign test is the trace condition only for the qutrit, so this regime
      requires 2x2 factors.
    - ``diagonal-unconstrained``: diagonal states of any factor dims, an
      embedded ``(dim_a dim_b - 1)``-level qudit whose last cell is zero, with
      unconstrained diagonal weights, so genuine violations are expected and
      get recorded.
    - ``general-unconstrained``: dense random states and weights of any
      requested factor dims, drawn and evaluated one chunk of stacks at a time.

    ``n``, the dims and ``seed`` must be integers (Python or numpy); anything
    else raises :class:`ValidationError`.
    """
    try:
        n, dim_a, dim_b, seed = map(operator.index, (n, dim_a, dim_b, seed))
    except TypeError:
        raise ValidationError(f"n, dim_a, dim_b and seed must be integers, got {n!r}, {dim_a!r}, {dim_b!r} "
                              f"and {seed!r}") from None
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
        chunks, table = _general_chunks(rng, n, dim_a, dim_b, tolerance), _general_table
    elif regime == "diagonal-condition-satisfying" and (dim_a, dim_b) != (2, 2):
        raise DimensionError(f"regime {regime!r} needs 2x2 factors, got {dim_a}x{dim_b}")
    else:
        chunks = _diagonal_chunks(rng, n, dim_a, dim_b, regime == "diagonal-condition-satisfying")
        table = partial(_diagonal_table, dim_a, dim_b)

    # draw -> scan -> release -> build: the scan's joined rows are copies taken by index, so the sample
    # and the last chunk are gone before the violators' table is built, once per audit, and no record
    mins, rows = _scan(chunks, tolerance)
    return AuditSummary(n, float(np.min(mins)), seed, regime, tolerance, table(*rows) if rows else None)
