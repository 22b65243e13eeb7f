"""Command line front end.

Exit codes: 0 success, 2 usage error (with a ``usage:`` line), validation
failure or a size too large to allocate, 3 dimension mismatch, 4 channel
undefined, 5 matrix-file parse error. Matrix files are JSON objects with keys
``dim``, ``re`` and optionally ``im`` (dim x dim arrays).

Parsing is the standard library's ``argparse``. Importing this module loads
``gc``, ``os``, ``sys`` and ``errors`` alone: ``argparse`` loads when
:func:`main` builds the parser, ``json`` in the functions that read or write
it, and numpy with the first matrix a call builds. Each evaluation module
loads just before the command's first call into it, so a call that fails
before then never loads them. ``check`` and ``channel`` write
``json.dumps(result, indent=2)``; ``audit`` writes the same bytes for its
summary through :func:`audit_to_json`, from the violators' table.

The process entry is :func:`run`, for the ``wqent`` script and ``python -m
wqent.cli`` alike. It switches the cyclic garbage collector off before the
command, so numpy and the evaluation modules import without collections, and
once :func:`main` returns it flushes stdout and stderr and ends the process
with ``os._exit``: no collection, module teardown or atexit hook runs after
the command. So ``python -m cProfile -m wqent.cli`` and ``coverage run -m
wqent.cli`` write no report; profile or trace :func:`main` in process instead.
:func:`main` is the in-process API and leaves the caller's collector as it
found it.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import repeat
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_TOL,
    PROB_SWEEP_WEIGHTS,
    WEIGHT_SWEEP_PROBS,
    ChannelUndefinedError,
    DimensionError,
    MatrixFileError,
    ValidationError,
)

if TYPE_CHECKING:
    import argparse

    import numpy as np

    from .inequality import AuditSummary
    from .states import WeightMatrix

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
    import json

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
    im = 0.0 if data.get("im") is None else _real_rows(path, "im", data["im"], dim)
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
    import numpy as np
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


def audit_to_json(summary: AuditSummary) -> str:
    """The audit payload as ``json.dumps(payload, indent=2)`` writes it, byte for byte, from the summary alone.

    The head goes through ``json.dumps``. The violations, read from the summary's table with no record built,
    fill a ``%s`` template record with one ``%`` call: ``str`` of a float is the ``float.__repr__`` that
    ``json`` writes, the verdicts become ``true`` and ``false``, and non-finite values take ``json``'s spelling.
    Raises ``DimensionError`` when the summary's stacks do not have the shapes its ``dims`` give.
    """
    import json

    import numpy as np

    from .inequality import _REPORT_NAMES, _verdicts

    text = json.dumps({"regime": summary.regime, "dims": "%dx%d" % summary.dims, "samples": summary.samples,
                       "seed": summary.seed, "tolerance": summary.tolerance, "min_gap": summary.min_gap,
                       "violations": []}, indent=2)
    if summary.columns is None:
        return text
    (dim_a, dim_b), (fields, matrices) = summary.dims, summary.columns
    k = len(fields["gap"])
    sizes = (("state", dim_a * dim_b), ("weight_a", dim_a), ("weight_b", dim_b))
    if [m.shape for m in matrices] != [(k, d, d) for _, d in sizes]:
        raise DimensionError(f"audit summary dims {dim_a}x{dim_b} do not match its stacks: "
                             f"{', '.join(f'{key} {m.shape}' for (key, _), m in zip(sizes, matrices))}")
    shape = {key: {"dim": d, "re": [["%s"] * d] * d, "im": [["%s"] * d] * d} for key, d in sizes}
    shape["report"] = dict.fromkeys(_REPORT_NAMES, "%s")
    template = json.dumps(shape, indent=2).replace('"%s"', "%s").replace("\n", "\n    ")
    # one row per record, its values in template order; the verdicts read 1.0 or 0.0 here
    flat = [m.reshape(k, -1) for m in matrices]
    table = np.column_stack([part for m in flat for part in (m.real, m.imag)]
                            + [*fields.values(), *_verdicts(fields, summary.tolerance), np.full(k, summary.tolerance)])
    values = table.ravel().tolist()
    for i in np.flatnonzero(~np.isfinite(table.ravel())).tolist():
        values[i] = json.dumps(values[i])
    width = table.shape[1]
    # condition_holds and subadditivity_holds, before the report's last value, its tolerance
    for col in (width - 3, width - 2):
        values[col::width] = ["true" if v else "false" for v in values[col::width]]
    body = ",\n    ".join(repeat(template, k)) % tuple(values)
    # text ends in '"violations": []\n}'; the records go between the brackets
    return f"{text[:-3]}\n    {body}\n  ]\n}}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{out}: cannot write file ({exc.strerror or exc})") from exc


def _diag_weight(x1: float, x2: float, tol: float = DEFAULT_TOL) -> WeightMatrix:
    from .states import WeightMatrix

    return WeightMatrix([[x1, 0.0], [0.0, x2]], tol=tol)


def entropy(state_file, weight_file, tol):
    """Weighted entropy of state_file under weight_file, in nats."""
    rho = load_matrix(state_file)
    from .states import DensityMatrix, WeightMatrix
    rho = DensityMatrix(rho, tol=tol)
    phi = WeightMatrix(load_matrix(weight_file), tol=tol)
    from .entropy import weighted_entropy
    print(f"{weighted_entropy(phi, rho):.12g}")


def check(state_file, weight_a_file, weight_b_file, dims, tol, out):
    """Subadditivity report for a bipartite state, as JSON."""
    import json

    dim_a, dim_b = _parse_dims(dims)
    rho = load_matrix(state_file)
    from .states import BipartiteState, DensityMatrix, WeightMatrix
    state = BipartiteState(DensityMatrix(rho, tol=tol), dim_a, dim_b)
    wa = WeightMatrix(load_matrix(weight_a_file), tol=tol)
    wb = WeightMatrix(load_matrix(weight_b_file), tol=tol)
    from dataclasses import asdict
    from .inequality import check_subadditivity
    report = check_subadditivity(wa, wb, state)
    _emit(json.dumps(asdict(report), indent=2) + "\n", out)


def qutrit(p1, p2, phi1, phi2, chi1, chi2):
    """Closed-form mutual information of a diagonal qutrit, cross-checked."""
    from .entropy import qutrit_mutual_information_closed_form

    value = qutrit_mutual_information_closed_form(p1, p2, phi1, phi2, chi1, chi2)
    from .inequality import check_subadditivity, qutrit_condition_gap, qutrit_weight_condition
    from .linalg import _within_noise
    from .states import QutritDiagonal, embed_qutrit
    cond = qutrit_weight_condition(phi1, phi2, chi1, chi2)
    gap = qutrit_condition_gap(p1, p2, phi1, phi2, chi1, chi2)

    state = embed_qutrit(QutritDiagonal(p1, p2, 1.0 - p1 - p2))
    general = check_subadditivity(_diag_weight(phi1, phi2), _diag_weight(chi1, chi2), state).gap
    delta = abs(value - general)

    print(f"mutual_information = {value:.12g}")
    print(f"weight_condition_value = {cond.value:.12g} ({'holds' if cond.holds else 'fails'})")
    print(f"condition_gap = {gap:.12g}")
    # flushed, so the values come before a warning when both streams go to one place
    print(f"cross_check_delta = {delta:.12g}", flush=True)
    # relative to the value once it exceeds 1: large weights scale the rounding of both paths
    if not _within_noise(delta, abs(value), DEFAULT_TOL):
        print(f"warning: closed form and matrix path disagree by {delta:.3e}", file=sys.stderr)


def sweep_prob(grid_n, phi1, phi2, chi1, chi2, out):
    """Mutual information over the (p1, p2) simplex at fixed weights."""
    from .sweeps import grid_to_csv, sweep_probabilities

    grid = sweep_probabilities(grid_n, phi1, phi2, chi1, chi2)
    comments = [
        f"sweep prob grid_n={grid_n} phi1={phi1:.17g} phi2={phi2:.17g} "
        f"chi1={chi1:.17g} chi2={chi2:.17g}",
        "axes sample cell centers (k + 1/2) / grid_n; cells with p1 + p2 >= 1 are omitted",
    ]
    _emit(grid_to_csv(grid, comments), out)


def sweep_weight(region, grid_n, p1, p2, out):
    """Mutual information over a (phi1, chi1) rectangle at a fixed state."""
    from .sweeps import grid_to_csv, sweep_weights

    grid = sweep_weights(region, grid_n, p1, p2)
    comments = [
        f"sweep weight region={region} grid_n={grid_n} p1={p1:.17g} p2={p2:.17g}",
        "phi2 = 1 - phi1 and chi2 = 1 - chi1; bounds inclusive",
    ]
    _emit(grid_to_csv(grid, comments), out)


def channel(state_file, projector_file, phi1, phi2, chi1, chi2, tol, out):
    """Apply the projective channel, then re-check subadditivity (2x2 systems)."""
    import json

    rho = load_matrix(state_file)
    from .states import BipartiteState, DensityMatrix
    state = BipartiteState(DensityMatrix(rho, tol=tol), 2, 2)
    proj = load_matrix(projector_file)
    from dataclasses import asdict
    from .channel import Projector, channel_then_check
    proj = Projector(proj, tol=tol)
    rho_out, report = channel_then_check(proj, _diag_weight(phi1, phi2, tol), _diag_weight(chi1, chi2, tol), state)
    m = rho_out.matrix
    result = {"state": {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}, "report": asdict(report)}
    _emit(json.dumps(result, indent=2) + "\n", out)


def audit(n, dims, seed, regime, tol, out):
    """Randomized subadditivity audit; violations land in the JSON summary."""
    from .inequality import audit_random

    summary = audit_random(n, *_parse_dims(dims), seed, regime, tolerance=tol)
    _emit(audit_to_json(summary) + "\n", out)


def _parser() -> argparse.ArgumentParser:
    """``wqent`` and its commands; each command's function is its ``run`` default."""
    import argparse

    parser = argparse.ArgumentParser(prog="wqent", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run):
        doc = run.__doc__
        sub = group.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def tol(sub):
        sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="validation tolerance (default: %(default)s)")

    def out(sub, what):
        sub.add_argument("--out", help=f"write the {what} here instead of stdout")

    def paper_values(sub, names, defaults):
        for name, default in zip(names, defaults):
            sub.add_argument(f"--{name}", type=float, default=default, help="default: %(default)s, the paper's value")

    sub = command(commands, "entropy", entropy)
    sub.add_argument("state_file")
    sub.add_argument("weight_file")
    tol(sub)

    sub = command(commands, "check", check)
    for name in ("state_file", "weight_a_file", "weight_b_file"):
        sub.add_argument(name)
    sub.add_argument("--dims", default="2x2", help="subsystem dims, e.g. 2x3 (default: %(default)s)")
    tol(sub)
    out(sub, "JSON report")

    sub = command(commands, "qutrit", qutrit)
    for name in ("p1", "p2", "phi1", "phi2", "chi1", "chi2"):
        sub.add_argument(name, type=float)

    doc = "Write mutual-information grids as CSV."
    sweeps = commands.add_parser("sweep", help=doc, description=doc, allow_abbrev=False)
    sweeps = sweeps.add_subparsers(metavar="GRID", required=True)
    sub = command(sweeps, "prob", sweep_prob)
    sub.add_argument("--grid-n", type=int, default=97, help="cells per axis (default: %(default)s)")
    paper_values(sub, ("phi1", "phi2", "chi1", "chi2"), PROB_SWEEP_WEIGHTS)
    out(sub, "CSV")
    sub = command(sweeps, "weight", sweep_weight)
    sub.add_argument("--region", required=True, help="the (phi1, chi1) rectangle of sweeps.WEIGHT_REGIONS: a or b")
    sub.add_argument("--grid-n", type=int, default=97, help="samples per axis (default: %(default)s)")
    paper_values(sub, ("p1", "p2"), WEIGHT_SWEEP_PROBS)
    out(sub, "CSV")

    sub = command(commands, "channel", channel)
    sub.add_argument("state_file")
    sub.add_argument("projector_file")
    paper_values(sub, ("phi1", "phi2", "chi1", "chi2"), PROB_SWEEP_WEIGHTS)
    tol(sub)
    out(sub, "JSON result")

    sub = command(commands, "audit", audit)
    sub.add_argument("--n", type=int, default=1000, help="number of samples (default: %(default)s)")
    sub.add_argument("--dims", default="2x2", help="subsystem dims (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    sub.add_argument("--regime", default="diagonal-condition-satisfying",
                     help="one of inequality.AUDIT_REGIMES (default: %(default)s)")
    tol(sub)
    out(sub, "JSON summary")
    return parser


def _joined_values(argv: list[str]) -> list[str]:
    """Each negative number that follows a long option joined to it: ``--phi1 -1e-8`` as ``--phi1=-1e-8``.

    argparse takes a word that starts with ``-`` for an option unless it reads
    as a plain negative number such as ``-0.5``. Every long option but
    ``--help`` takes a value. Words after ``--`` are left as they are.
    """
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        if arg.startswith("-") and prev.startswith("--") and "=" not in prev and prev != "--help":
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={arg}"
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    """Weighted entropies and subadditivity checks for small qudit systems."""
    args = vars(_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else list(argv))))
    run = args.pop("run")
    try:
        run(**args)
    except tuple(t for t, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in EXIT_CODES if isinstance(exc, t))
    except BrokenPipeError:
        # the reader closed stdout early (``wqent sweep prob | head``): exit 1 without a
        # traceback, and let a later flush of stdout write to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def run() -> None:
    """The ``wqent`` process: :func:`main` on ``sys.argv`` with the cyclic collector off, then ``os._exit``.

    Once ``main`` returns its code, stdout and stderr are flushed and the process ends without finalizing the
    interpreter: no shutdown collection, module teardown or atexit hook. A reader that closed the pipe before
    that flush exits 1, as in ``main``. argparse's ``SystemExit`` and an unexpected exception leave through the
    interpreter's usual exit.
    """
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
