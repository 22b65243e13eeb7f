"""The benchmark's workloads: each is a fixed round of operations on fresh seeded inputs.

A round always holds the same operations in the same order, so the share of
failed operations is the same in every run whatever the seed or length.
Inputs are built before a round starts and are not timed. Operations call
the program through ``wqent``'s module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import wqent
import wqent.cli

import checks
import inputs
import oracle

GRID_N = 97
PAPER_PROB = (0.75, 0.25, 1.0 / 3.0, 2.0 / 3.0)  # phi1, phi2, chi1, chi2
PAPER_WEIGHT = (0.25, 0.125)  # p1, p2
REPORT_TOL = 1e-10


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # A known program fault: when the check fails the operation counts as
    # failed instead of making the run incorrect.
    fault: str | None = None


class Workload:
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.csv_bytes = 0

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def plant(self) -> tuple[Callable[[Any], list[str]], Any, Any]:
        """A check, a real output it must pass and a copy with one value off by 1e-6."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def probe(self) -> list[str]:
        """Extra calls made only in traced rounds, outside the round's timing."""
        return []


# -- scalar checks ------------------------------------------------------------


def check_op(case: inputs.Case) -> Op:
    def run():
        state = wqent.BipartiteState(wqent.DensityMatrix(case.rho), case.da, case.db)
        return wqent.check_subadditivity(wqent.WeightMatrix(case.wa), wqent.WeightMatrix(case.wb), state)

    what = f"check d{case.da * case.db} {case.kind}"
    return Op(f"check.d{case.da * case.db}.{case.kind}", run,
              lambda rep: checks.check_case(rep, case, what))


def channel_op(case: inputs.Case, projector: np.ndarray, label: str, rank: int) -> Op:
    def run():
        proj = wqent.Projector(projector)
        state = wqent.BipartiteState(wqent.DensityMatrix(case.rho), case.da, case.db)
        rho_out, rep = wqent.channel_then_check(proj, wqent.WeightMatrix(case.wa), wqent.WeightMatrix(case.wb),
                                            state)
        return proj.rank, rho_out.matrix, rep

    def check(out):
        got_rank, rho_out, rep = out
        what = f"channel d4 {label}"
        ref = oracle.channel(projector, case.rho)
        out_case = dataclasses.replace(case, rho=ref)
        problems = checks.matrix_problems(rho_out, ref, what) + checks.check_case(rep, out_case, what)
        if got_rank != rank:
            problems.append(f"{what}: projector rank {got_rank}, expected {rank}")
        return problems

    return Op(f"channel.d4.{label}", run, check)


def basis_example_op() -> Op:
    """The paper's example: basis_projector(4, (0, 2)) on the embedded 0.0728 qutrit."""
    p = np.array([0.1, 0.1, 0.8, 0.0])
    wa, wb = np.diag([0.75, 0.25]).astype(complex), np.diag([1 / 3, 2 / 3]).astype(complex)
    mask = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    case = inputs.Case("frame-joint-deficient", 2, 2, np.diag(p).astype(complex), wa, wb,
                       frame=np.eye(4, dtype=complex), probs=p.reshape(2, 2))

    def run():
        proj = wqent.basis_projector(4, (0, 2))
        state = wqent.embed_qutrit(wqent.QutritDiagonal(0.1, 0.1, 0.8))
        rho_out, rep = wqent.channel_then_check(proj, wqent.WeightMatrix(wa), wqent.WeightMatrix(wb), state)
        return proj.rank, rho_out.matrix, rep

    op = channel_op(case, mask, "basis-example", 2)
    return Op(op.kind, run, op.check)


class ScalarSmall(Workload):
    """Checks at 2x2 and 2x3, plus channel_then_check at 2x2."""

    def round(self, r):
        ops = [check_op(c) for dims in ((2, 2), (2, 3)) for c in inputs.check_cases(self.rng, *dims)]
        for rank in (1, 2, 3):
            case = inputs.frame_case(self.rng, 2, 2, "full")
            ops.append(channel_op(case, inputs.frame_projector(self.rng, case, rank), f"rank{rank}", rank))
        return ops + [basis_example_op()]

    def plant(self):
        op = check_op(inputs.frame_case(self.rng, 2, 2, "full"))
        rep = op.run()
        return op.check, rep, dataclasses.replace(rep, gap=rep.gap + 1e-6)


class ScalarLarge(ScalarSmall):
    """Checks at 3x3 and 4x4."""

    def round(self, r):
        return [check_op(c) for dims in ((3, 3), (4, 4)) for c in inputs.check_cases(self.rng, *dims)]


# -- audits -------------------------------------------------------------------


def audit_op(n: int, da: int, db: int, seed: int, regime: str) -> Op:
    def run():
        return wqent.audit_random(n, da, db, seed, regime)

    def check(s):
        viol = [(v.state, v.weight_a, v.weight_b, v.report) for v in s.violations]
        return checks.audit_problems(s.samples, s.seed, s.regime, s.min_gap, viol, n, seed, regime,
                                     REPORT_TOL, f"audit {regime} {da}x{db} seed {seed}")

    suffix = f".{da}x{db}" if regime == "general-unconstrained" else ""
    return Op(f"audit.{regime}{suffix}", run, check)


class AuditGeneral(Workload):
    """general-unconstrained audits at 2x2 and 3x3, a fresh audit seed each time."""

    SAMPLES = {(2, 2): 50, (3, 3): 10}

    def round(self, r):
        return [audit_op(n, da, db, int(self.rng.integers(2**31)), "general-unconstrained")
                for (da, db), n in self.SAMPLES.items()]

    def plant(self):
        # general audits rarely record a violation, so borrow a real one from
        # the diagonal family and check it through the dense oracle path
        return planted_audit(self.rng, "general-unconstrained")


class AuditDiagonal(Workload):
    """Both diagonal regimes at 1e5 samples."""

    N = 100_000

    def round(self, r):
        return [audit_op(self.N, 2, 2, int(self.rng.integers(2**31)), regime)
                for regime in ("diagonal-condition-satisfying", "diagonal-unconstrained")]

    def plant(self):
        return planted_audit(self.rng, "diagonal-unconstrained")


def planted_audit(rng: np.random.Generator, regime: str):
    """Violations of a real diagonal audit, checked as if ``regime`` had recorded them."""
    s = wqent.audit_random(2000, 2, 2, int(rng.integers(2**31)), "diagonal-unconstrained")
    good = [(v.state, v.weight_a, v.weight_b, v.report) for v in s.violations[:20]]
    bad = list(good)
    bad[-1] = bad[-1][:3] + (dataclasses.replace(bad[-1][3], gap=bad[-1][3].gap + 1e-6),)

    def check(viol):
        min_gap = min(rep.gap for *_, rep in viol)
        return checks.audit_problems(1, 0, regime, min_gap, viol, 1, 0, regime, REPORT_TOL, "planted")

    return check, good, bad


# -- figures ------------------------------------------------------------------


def figure_ops(prob: tuple, weight: tuple, on_text=lambda text: None) -> list[Op]:
    """The three figure grids rendered as CSV; their checks pass each text to ``on_text``."""

    def render(grid: str):
        def run():
            if grid == "prob":
                g = wqent.sweep_probabilities(GRID_N, *prob)
            else:
                g = wqent.sweep_weights(grid[-1], GRID_N, *weight)
            return wqent.grid_to_csv(g, [f"{grid} grid_n={GRID_N}"])
        return run

    def check(grid: str):
        params = prob if grid == "prob" else weight

        def inner(text):
            on_text(text)
            return checks.csv_problems(text, grid, params, GRID_N, f"figure {grid} {params}")
        return inner

    return [Op(f"figure.{g}", render(g), check(g)) for g in ("prob", "weight-a", "weight-b")]


class Figures(Workload):
    """The three 97x97 grids: the paper's parameters first, then seeded ones."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first: list[str] = []

    def params(self, r):
        if r == 0:
            return PAPER_PROB, PAPER_WEIGHT
        p = inputs.simplex(self.rng, 3)
        return inputs.condition_weights(self.rng), (float(p[0]), float(p[1]))

    def round(self, r):
        return figure_ops(*self.params(r), lambda text: self.seen(r, text))

    def seen(self, r: int, text: str) -> None:
        self.csv_bytes += len(text.encode())
        if r == 0:
            self.first.append(text)

    def finish(self):
        # render the first round again: the bytes must not change within a run
        again = [op.run() for op in figure_ops(PAPER_PROB, PAPER_WEIGHT)]
        return [] if again == self.first else ["figures: a second render differs from the first"]

    def plant(self):
        op = figure_ops(PAPER_PROB, PAPER_WEIGHT)[0]
        text = op.run()
        lines = text.splitlines()
        x, y, v = lines[-1].split(",")
        lines[-1] = f"{x},{y},{float(v) + 1e-6!r}"
        return op.check, text, "\n".join(lines) + "\n"


# -- CLI ----------------------------------------------------------------------

# Fault kept on purpose: at --tol 1e-6 this state validates, but evaluation
# applies the package-wide 1e-10 floor and rejects its -1e-8 eigenvalue.
NEG_STATE = np.diag([0.4 + 1e-8, 0.35, 0.25, -1e-8]).astype(complex)
NEG_WEIGHT = np.diag([0.5, 1.0, 1.5, 2.0]).astype(complex)
WORKED = (0.1, 0.1, 0.75, 0.25, 1.0 / 3.0, 2.0 / 3.0)
SIGNED_ZERO = (0.5, 0.5, 1.0, 0.0, 0.0, 1.0)


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "wqent.cli", *args], capture_output=True,
                          text=True, env=cli_env(), timeout=120)


def write_matrix(path: str, m: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}, fh)
    return path


def read_matrix(d: dict) -> np.ndarray:
    return np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)


def exit_zero(what: str, check):
    """``check`` on a call's output, once the call has exited 0."""
    def inner(proc):
        if proc.returncode != 0:
            return [f"{what}: exit {proc.returncode}: {proc.stderr.strip()}"]
        return check(proc)
    return inner


def qutrit_problems(proc, args: tuple, what: str) -> list[str]:
    out = {}
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" = ")
        out[key] = rest.split()[0]
    p1, p2, f1, f2, c1, c2 = args
    want = {"mutual_information": float(oracle.qutrit_mi(*args)),
            "weight_condition_value": (f1 - f2) * (c2 - c1),
            "condition_gap": p2 * (1 - p1 - p2) * (f1 - f2) * (c2 - c1)}
    problems = []
    for key, ref in want.items():
        text = out.get(key)
        if text is None or not checks.close(float(text), ref, 1e-11):
            problems.append(f"{what}: {key} = {text}, oracle {ref!r}")
        elif text.startswith("-") and float(text) == 0.0:
            problems.append(f"{what}: {key} prints a negative zero ({text})")
    if float(out.get("cross_check_delta", "inf")) > 1e-9:
        problems.append(f"{what}: cross_check_delta = {out.get('cross_check_delta')}")
    return problems


def exit_problems(proc, code: int, what: str) -> list[str]:
    if proc.returncode != code or not proc.stderr.startswith("error:"):
        return [f"{what}: exit {proc.returncode} ({proc.stderr.strip()!r}), expected {code}"]
    return []


class Cli(Workload):
    """A fixed sequence of ``python -m wqent.cli`` calls, one subprocess at a time."""

    in_process = False
    AUDIT_N = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.files: list[str] = []
        self.sweep_first: str | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def matrix_file(self, name: str, m: np.ndarray) -> str:
        self.files.append(write_matrix(self.path(name), m))
        return self.files[-1]

    def round(self, r):
        self.files = []
        case = inputs.frame_case(self.rng, 2, 2, "joint")
        state, wa, wb = (self.matrix_file(f"{k}.json", m)
                         for k, m in (("state", case.rho), ("wa", case.wa), ("wb", case.wb)))
        phi = self.matrix_file("phi.json", np.kron(case.wa, case.wb))
        p = inputs.simplex(self.rng, 3)
        qdiag = np.diag([p[0], p[1], p[2], 0.0]).astype(complex)
        qstate = self.matrix_file("qutrit.json", qdiag)
        keep = (0, 1 + int(self.rng.integers(2)))
        mask = np.zeros((4, 4), dtype=complex)
        mask[keep, keep] = 1.0
        proj = self.matrix_file("proj.json", mask)
        orth = self.matrix_file("orth.json", np.diag([0, 0, 0, 1.0]).astype(complex))
        neg = self.matrix_file("neg.json", NEG_STATE)
        negw = self.matrix_file("negw.json", NEG_WEIGHT)
        bad = self.path("bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"dim": 4, "re": [[1, 0, 0, 0], [0, 0')
        weights = inputs.condition_weights(self.rng)
        wargs = [x for k, v in zip(("--phi1", "--phi2", "--chi1", "--chi2"), weights) for x in (k, repr(v))]
        aseed = int(self.rng.integers(2**31))
        csv_out = self.path("prob.csv")
        phi_ab = np.kron(case.wa, case.wb)
        wdiag = [np.diag(weights[:2]).astype(complex), np.diag(weights[2:]).astype(complex)]

        def op(name, args, check, fault=None):
            return Op(f"cli.{name}", lambda: run_cli([str(a) for a in args]),
                      exit_zero(f"cli {name}", check), fault)

        def entropy_check(proc):
            ref = oracle.entropy(phi_ab, case.rho).real
            ok = checks.close(float(proc.stdout), ref, 1e-11)
            return [] if ok else [f"cli entropy: printed {proc.stdout.strip()}, oracle {ref!r}"]

        def check_check(proc):
            return checks.check_case(json.loads(proc.stdout), case, "cli check")

        def channel_check(proc):
            out = json.loads(proc.stdout)
            ref = oracle.channel(mask, qdiag)
            out_case = inputs.Case("frame-joint-deficient", 2, 2, ref, *wdiag, frame=np.eye(4))
            return (checks.matrix_problems(read_matrix(out["state"]), ref, "cli channel")
                    + checks.check_case(out["report"], out_case, "cli channel"))

        def sweep_prob_check(proc):
            with open(csv_out, encoding="utf-8") as fh:
                text = fh.read()
            if self.sweep_first is None:
                self.sweep_first = text
            elif text != self.sweep_first:
                return ["cli sweep prob: the CSV bytes changed between two calls"]
            return checks.csv_problems(text, "prob", PAPER_PROB, GRID_N, "cli sweep prob")

        def sweep_weight_check(proc):
            return checks.csv_problems(proc.stdout, "weight-a", PAPER_WEIGHT, GRID_N, "cli sweep weight")

        def audit_check(proc):
            s = json.loads(proc.stdout)
            viol = [(read_matrix(v["state"]), read_matrix(v["weight_a"]), read_matrix(v["weight_b"]),
                     v["report"]) for v in s["violations"]]
            return checks.audit_problems(s["samples"], s["seed"], s["regime"], s["min_gap"], viol,
                                         self.AUDIT_N, aseed, "diagonal-unconstrained",
                                         s["tolerance"], "cli audit")

        def neg_check(proc):
            ref = oracle.entropy(NEG_WEIGHT, NEG_STATE).real
            ok = checks.close(float(proc.stdout), ref, 1e-11)
            return [] if ok else [f"cli entropy --tol 1e-6: printed {proc.stdout.strip()}, oracle {ref!r}"]

        return [
            op("qutrit", ["qutrit", *map(repr, WORKED)], lambda pr: qutrit_problems(pr, WORKED, "cli qutrit")),
            op("entropy", ["entropy", state, phi], entropy_check),
            op("check", ["check", state, wa, wb, "--dims", "2x2"], check_check),
            op("channel", ["channel", qstate, proj, *wargs], channel_check),
            op("sweep-prob", ["sweep", "prob", "--out", csv_out], sweep_prob_check),
            op("sweep-weight", ["sweep", "weight", "--region", "a"], sweep_weight_check),
            op("audit", ["audit", "--n", self.AUDIT_N, "--seed", aseed, "--regime",
                         "diagonal-unconstrained"], audit_check),
            Op("cli.exit3", lambda: run_cli(["check", state, wa, wb, "--dims", "2x3"]),
               lambda pr: exit_problems(pr, 3, "cli exit3")),
            Op("cli.exit4", lambda: run_cli(["channel", qstate, orth]),
               lambda pr: exit_problems(pr, 4, "cli exit4")),
            Op("cli.exit5", lambda: run_cli(["entropy", bad, phi]),
               lambda pr: exit_problems(pr, 5, "cli exit5")),
            op("entropy-tol", ["entropy", "--tol", "1e-6", neg, negw], neg_check,
               fault="state valid at --tol 1e-6 is rejected by evaluation's fixed 1e-10 floor"),
            op("qutrit-signed-zero", ["qutrit", *map(repr, SIGNED_ZERO)],
               lambda pr: qutrit_problems(pr, SIGNED_ZERO, "cli qutrit signed zero"),
               fault="a zero mutual information prints as -0"),
        ]

    def probe(self):
        """Load this round's matrix files in-process, as the CLI does."""
        problems = []
        for path in self.files:
            with open(path, encoding="utf-8") as fh:
                want = read_matrix(json.load(fh))
            if not np.array_equal(wqent.cli.load_matrix(path), want):
                problems.append(f"load_matrix({os.path.basename(path)}) differs from the file")
        return problems

    def plant(self):
        case = inputs.frame_case(self.rng, 2, 2, "full")
        files = [write_matrix(self.path(f"plant{i}.json"), m)
                 for i, m in enumerate((case.rho, case.wa, case.wb))]
        proc = run_cli(["check", *files, "--dims", "2x2"])
        rep = json.loads(proc.stdout) if proc.returncode == 0 else {"gap": 0.0}
        bad = subprocess.CompletedProcess(proc.args, proc.returncode,
                                          json.dumps(dict(rep, gap=rep["gap"] + 1e-6)), proc.stderr)
        check = exit_zero("planted", lambda p: checks.check_case(json.loads(p.stdout), case, "planted"))
        return check, proc, bad


WORKLOADS = {
    "scalar-check.small": ScalarSmall,
    "scalar-check.large": ScalarLarge,
    "audit-bulk.general": AuditGeneral,
    "audit-bulk.diagonal": AuditDiagonal,
    "figures-cli.figures": Figures,
    "figures-cli.cli": Cli,
}
