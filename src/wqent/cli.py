"""Command line front end.

Exit codes: 0 success, 2 validation failure or a size too large to
allocate, 3 dimension mismatch, 4 channel undefined, 5 matrix-file parse
error. Matrix files are JSON objects with keys ``dim``, ``re`` and
optionally ``im`` (dim x dim arrays).
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import attrgetter

import click
import numpy as np

from .errors import (
    ChannelUndefinedError,
    DimensionError,
    MatrixFileError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, _within_noise
from .states import (
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_qutrit,
)
from .entropy import qutrit_mutual_information_closed_form, weighted_entropy
from .inequality import (
    AUDIT_REGIMES,
    _REPORT_NAMES,
    AuditSummary,
    SubadditivityReport,
    audit_random,
    check_subadditivity,
    qutrit_condition_gap,
    qutrit_weight_condition,
)
from .channel import Projector, channel_then_check
from .sweeps import PROB_SWEEP_WEIGHTS, WEIGHT_SWEEP_PROBS, grid_to_csv, sweep_probabilities, sweep_weights

# Exit code per error type. The four wqent errors are siblings under ValueError, so
# their order does not matter. A MemoryError is a size that cannot be allocated.
EXIT_CODES = (
    (MatrixFileError, 5),
    (DimensionError, 3),
    (ChannelUndefinedError, 4),
    (ValidationError, 2),
    (MemoryError, 2),
)


def load_matrix(path: str) -> np.ndarray:
    """Read a JSON matrix file into a complex array."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file ({exc.strerror or exc})") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except RecursionError as exc:
        raise MatrixFileError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise MatrixFileError(f"{path}: top level must be an object")
    if "dim" not in data or "re" not in data:
        raise MatrixFileError(f"{path}: required keys 'dim' and 're' missing")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MatrixFileError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    re = _real_rows(path, "re", data["re"], dim)
    if "im" in data and data["im"] is not None:
        im = _real_rows(path, "im", data["im"], dim)
    else:
        im = np.zeros((dim, dim))
    return re + 1j * im


def _real_rows(path: str, name: str, rows, dim: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        found = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise MatrixFileError(f"{path}: '{name}' must be a list of {dim} rows, found {found}")
    # every row's shape is checked before the matrix is allocated, so a short file cannot
    # declare a huge one
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise MatrixFileError(f"{path}: '{name}' row {i} must have {dim} entries")
    out = np.empty((dim, dim))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise MatrixFileError(f"{path}: '{name}' entry at row {i}, column {j} is not a number")
            try:
                out[i, j] = v
            except OverflowError as exc:
                raise MatrixFileError(
                    f"{path}: '{name}' entry at row {i}, column {j} is too large for a float"
                ) from exc
    return out


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise ValidationError(f"dims must look like '2x2', got {text!r}") from exc


_REPORT_SHAPE = dict.fromkeys(_REPORT_NAMES, "%s")


def _matrix_shape(dim: int) -> dict:
    return {"dim": dim, "re": [["%s"] * dim] * dim, "im": [["%s"] * dim] * dim}


def _records_json(shape: dict, matrices: list[np.ndarray], reports: list[SubadditivityReport],
                  indent: str = "") -> str:
    """One record per report, each as ``json.dumps(record, indent=2)`` writes it, joined by ``,``.

    ``shape`` is a placeholder record, each value a ``%s`` and the report last;
    ``matrices`` holds one ``(k, d, d)`` stack per matrix in ``shape``, in its
    order. Every value of every record goes through one ``%`` call. ``str`` of
    a float is the ``float.__repr__`` that ``json`` writes; the verdicts become
    ``true`` and ``false``, and non-finite values take ``json``'s spelling
    first. Every line after the first is prefixed with ``indent``.
    """
    template = json.dumps(shape, indent=2).replace('"%s"', "%s").replace("\n", "\n" + indent)
    # one row per record, its values in template order; the verdicts read 1.0 or 0.0 here
    k = len(reports)
    flat = [m.reshape(k, -1) for m in matrices]
    table = np.concatenate([part for m in flat for part in (m.real, m.imag)]
                           + [np.array([*map(attrgetter(*_REPORT_NAMES), reports)], dtype=float)], axis=1)
    values = table.ravel().tolist()
    for i in np.flatnonzero(~np.isfinite(table.ravel())).tolist():
        values[i] = json.dumps(values[i])
    width = table.shape[1]
    for key in ("condition_holds", "subadditivity_holds"):
        col = width - len(_REPORT_NAMES) + _REPORT_NAMES.index(key)
        values[col::width] = ["true" if v else "false" for v in values[col::width]]
    return (",\n" + indent).join(repeat(template, k)) % tuple(values)


def audit_to_json(summary: AuditSummary, dim_a: int, dim_b: int, tolerance: float) -> str:
    """The audit payload as ``json.dumps(payload, indent=2)`` writes it, byte for byte.

    The head goes through ``json.dumps``; the violations through :func:`_records_json`.
    """
    text = json.dumps({
        "regime": summary.regime,
        "dims": f"{dim_a}x{dim_b}",
        "samples": summary.samples,
        "seed": summary.seed,
        "tolerance": tolerance,
        "min_gap": summary.min_gap,
        "violations": [],
    }, indent=2)
    records = summary.violations
    if not records:
        return text
    shape = {"state": _matrix_shape(dim_a * dim_b), "weight_a": _matrix_shape(dim_a),
             "weight_b": _matrix_shape(dim_b), "report": _REPORT_SHAPE}
    matrices = [np.stack([getattr(r, name) for r in records]) for name in ("state", "weight_a", "weight_b")]
    body = _records_json(shape, matrices, [r.report for r in records], "    ")
    # text ends in '"violations": []\n}'; the records go between the brackets
    return f"{text[:-3]}\n    {body}\n  ]\n}}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{out}: cannot write file ({exc.strerror or exc})") from exc


def _diag_weight(x1: float, x2: float, tol: float = DEFAULT_TOL) -> WeightMatrix:
    return WeightMatrix(np.diag([complex(x1), complex(x2)]), tol=tol)


def _prob_sweep_weights(f):
    """The ``--phi1 --phi2 --chi1 --chi2`` options, in that order, defaulting to ``PROB_SWEEP_WEIGHTS``."""
    for name, value in reversed(tuple(zip(("phi1", "phi2", "chi1", "chi2"), PROB_SWEEP_WEIGHTS))):
        f = click.option(f"--{name}", default=value, show_default=True)(f)
    return f


class _ExitCodeGroup(click.Group):
    """Turns an error type listed in ``EXIT_CODES``, raised by any command, into its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(t for t, _ in EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(next(code for t, code in EXIT_CODES if isinstance(exc, t)))


@click.group(cls=_ExitCodeGroup)
def main():
    """Weighted entropies and subadditivity checks for small qudit systems."""


@main.command()
@click.argument("state_file")
@click.argument("weight_file")
@click.option("--tol", default=DEFAULT_TOL, show_default=True, help="validation tolerance")
def entropy(state_file, weight_file, tol):
    """Weighted entropy of STATE_FILE under WEIGHT_FILE, in nats."""
    rho = DensityMatrix(load_matrix(state_file), tol=tol)
    phi = WeightMatrix(load_matrix(weight_file), tol=tol)
    click.echo(f"{weighted_entropy(phi, rho):.12g}")


@main.command()
@click.argument("state_file")
@click.argument("weight_a_file")
@click.argument("weight_b_file")
@click.option("--dims", default="2x2", show_default=True, help="subsystem dims, e.g. 2x3")
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--out", default=None, help="write the JSON report here instead of stdout")
def check(state_file, weight_a_file, weight_b_file, dims, tol, out):
    """Subadditivity report for a bipartite state, as JSON."""
    dim_a, dim_b = _parse_dims(dims)
    rho = DensityMatrix(load_matrix(state_file), tol=tol)
    state = BipartiteState(rho, dim_a, dim_b)
    wa = WeightMatrix(load_matrix(weight_a_file), tol=tol)
    wb = WeightMatrix(load_matrix(weight_b_file), tol=tol)
    report = check_subadditivity(wa, wb, state)
    _emit(_records_json(_REPORT_SHAPE, [], [report]) + "\n", out)


@main.command()
@click.argument("p1", type=float)
@click.argument("p2", type=float)
@click.argument("phi1", type=float)
@click.argument("phi2", type=float)
@click.argument("chi1", type=float)
@click.argument("chi2", type=float)
def qutrit(p1, p2, phi1, phi2, chi1, chi2):
    """Closed-form mutual information of a diagonal qutrit, cross-checked."""
    value = qutrit_mutual_information_closed_form(p1, p2, phi1, phi2, chi1, chi2)
    cond = qutrit_weight_condition(phi1, phi2, chi1, chi2)
    gap = qutrit_condition_gap(p1, p2, phi1, phi2, chi1, chi2)

    state = embed_qutrit(QutritDiagonal(p1, p2, 1.0 - p1 - p2))
    general = check_subadditivity(_diag_weight(phi1, phi2), _diag_weight(chi1, chi2), state).gap
    delta = abs(value - general)

    click.echo(f"mutual_information = {value:.12g}")
    click.echo(f"weight_condition_value = {cond.value:.12g} ({'holds' if cond.holds else 'fails'})")
    click.echo(f"condition_gap = {gap:.12g}")
    click.echo(f"cross_check_delta = {delta:.12g}")
    # relative to the value once it exceeds 1: large weights scale the rounding of both paths
    if not _within_noise(delta, abs(value), DEFAULT_TOL):
        click.echo(
            f"warning: closed form and matrix path disagree by {delta:.3e}", err=True
        )


@main.group()
def sweep():
    """Write mutual-information grids as CSV."""


@sweep.command("prob")
@click.option("--grid-n", default=97, show_default=True, help="cells per axis")
@_prob_sweep_weights
@click.option("--out", default=None, help="output CSV path (default stdout)")
def sweep_prob(grid_n, phi1, phi2, chi1, chi2, out):
    """Mutual information over the (p1, p2) simplex at fixed weights."""
    grid = sweep_probabilities(grid_n, phi1, phi2, chi1, chi2)
    comments = [
        f"sweep prob grid_n={grid_n} phi1={phi1:.17g} phi2={phi2:.17g} "
        f"chi1={chi1:.17g} chi2={chi2:.17g}",
        "axes sample cell centers (k + 1/2) / grid_n; cells with p1 + p2 >= 1 are omitted",
    ]
    _emit(grid_to_csv(grid, comments), out)


@sweep.command("weight")
@click.option("--region", type=click.Choice(["a", "b"]), required=True)
@click.option("--grid-n", default=97, show_default=True, help="samples per axis")
@click.option("--p1", default=WEIGHT_SWEEP_PROBS[0], show_default=True)
@click.option("--p2", default=WEIGHT_SWEEP_PROBS[1], show_default=True)
@click.option("--out", default=None, help="output CSV path (default stdout)")
def sweep_weight(region, grid_n, p1, p2, out):
    """Mutual information over a (phi1, chi1) rectangle at a fixed state."""
    grid = sweep_weights(region, grid_n, p1, p2)
    comments = [
        f"sweep weight region={region} grid_n={grid_n} p1={p1:.17g} p2={p2:.17g}",
        "phi2 = 1 - phi1 and chi2 = 1 - chi1; bounds inclusive",
    ]
    _emit(grid_to_csv(grid, comments), out)


@main.command()
@click.argument("state_file")
@click.argument("projector_file")
@_prob_sweep_weights
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--out", default=None, help="write the JSON result here instead of stdout")
def channel(state_file, projector_file, phi1, phi2, chi1, chi2, tol, out):
    """Apply the projective channel, then re-check subadditivity (2x2 systems)."""
    rho = DensityMatrix(load_matrix(state_file), tol=tol)
    state = BipartiteState(rho, 2, 2)
    proj = Projector(load_matrix(projector_file), tol=tol)
    rho_out, report = channel_then_check(proj, _diag_weight(phi1, phi2, tol), _diag_weight(chi1, chi2, tol), state)
    shape = {"state": _matrix_shape(rho_out.matrix.shape[0]), "report": _REPORT_SHAPE}
    _emit(_records_json(shape, [rho_out.matrix[None]], [report]) + "\n", out)


@main.command()
@click.option("--n", default=1000, show_default=True, help="number of samples")
@click.option("--dims", default="2x2", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option(
    "--regime",
    type=click.Choice(AUDIT_REGIMES),
    default="diagonal-condition-satisfying",
    show_default=True,
)
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--out", default=None, help="write the JSON summary here instead of stdout")
def audit(n, dims, seed, regime, tol, out):
    """Randomized subadditivity audit; violations land in the JSON summary."""
    dim_a, dim_b = _parse_dims(dims)
    summary = audit_random(n, dim_a, dim_b, seed, regime, tolerance=tol)
    _emit(audit_to_json(summary, dim_a, dim_b, tol) + "\n", out)


if __name__ == "__main__":
    main()
