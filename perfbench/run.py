"""Run one benchmark workload against the wqent sources in ./src.

Usage, from the repository root:

    python3 perfbench/run.py --workload scalar-check.small --seed 1 --seconds 10 --trace 0

The workload runs whole rounds of operations in a closed loop (the next
operation starts when the previous one returns) until --seconds have passed,
checks every output against the independent oracle, and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With --trace 0 the metrics are BENCHMARK.json's end-to-end
metrics; with --trace 1 every other round is traced and the metrics are its
per-layer ones. Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import os
import sys


def _single_blas_thread() -> int:
    """Run BLAS single-threaded, here and in every child; must precede numpy's import.

    The matrices here are at most 16x16, which OpenBLAS never splits across
    threads, but starting its thread pool costs each fresh interpreter tens of
    milliseconds and most of the run-to-run noise of a CLI call.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


NPROC = _single_blas_thread()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
# Reference kernel time spent after each operation, as a share of its time.
KERNEL_SHARE = 0.1
PROBE_REPEATS = 5
# A fresh interpreter importing the package and running the worked example:
# import-time work and first-call work both land in setup_s.
SETUP_CODE = (
    "import numpy as np, wqent, wqent.cli\n"
    "s = wqent.embed_qutrit(wqent.QutritDiagonal(0.1, 0.1, 0.8))\n"
    "wa = wqent.WeightMatrix(np.diag([0.75, 0.25]).astype(complex))\n"
    "wb = wqent.WeightMatrix(np.diag([1 / 3, 2 / 3]).astype(complex))\n"
    "print(repr(wqent.check_subadditivity(wa, wb, s).gap))\n"
)
# Untraced operation times by class, from the traced run's untraced rounds:
# metric -> (operation kind prefix, audit dims whose sample count divides it).
OP_METRICS = {
    "op.check_ms.d4": ("check.d4.", None),
    "op.check_ms.d6": ("check.d6.", None),
    "op.check_ms.d9": ("check.d9.", None),
    "op.check_ms.d16": ("check.d16.", None),
    "op.channel_ms.d4": ("channel.d4.", None),
    "op.audit_ms_per_sample.general.2x2": ("audit.general-unconstrained.2x2", (2, 2)),
    "op.audit_ms_per_sample.general.3x3": ("audit.general-unconstrained.3x3", (3, 3)),
    "op.audit_ms.diagonal-condition-satisfying": ("audit.diagonal-condition-satisfying", None),
    "op.audit_ms.diagonal-unconstrained": ("audit.diagonal-unconstrained", None),
    "op.cli_call_ms": ("cli.", None),
}
AUDIT_SELF = "inequality.audit_random.self_s."


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_child(code: str, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    return time.perf_counter() - t0, proc


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without the dict form; the name is informational
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "nproc": NPROC, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def median_ms(xs) -> float:
    return 1e3 * statistics.median(xs) if xs else 0.0


class Run:
    """One run's measurements: round times, op times, failures, problems.

    Times are kept scaled to reference speed: each round by the mean of the
    kernel times measured right after each of its operations (reference.py).
    ``kernel`` keeps the raw kernel times for the traced run.
    """

    def __init__(self, workload, tracer, env):
        self.wl = workload
        self.tracer = tracer
        self.env = env
        self.rounds: list[tuple[bool, float]] = []
        self.kernel: list[float] = []
        self.op_times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, str] = {}
        self.problems: list[str] = []

    def round(self, r: int, traced: bool) -> None:
        ops = self.wl.round(r)
        # every round starts from the same collector state, whatever the
        # checks of the previous round left behind
        gc.collect()
        if traced:
            self.tracer.install()
        results, kernel = [], []
        try:
            for op in ops:
                with self.tracer.span("op." + op.kind) if traced else nullcontext():
                    t0 = time.perf_counter()
                    try:
                        out = op.run()
                    except Exception as exc:  # a raising operation is a failed one
                        out = exc
                    results.append((op, out, time.perf_counter() - t0))
                kernel.append(self.kernel_time(results[-1][2]))
            if traced:
                self.problems += self.wl.probe()
        finally:
            if traced:
                self.tracer.uninstall()
        scale = self.nominal / statistics.fmean(kernel)
        self.kernel += kernel
        self.rounds.append((traced, scale * sum(dt for *_, dt in results)))
        for op, out, dt in results:
            self.attempted += 1
            if not traced:
                self.op_times[op.kind].append(scale * dt)
            issues = [f"{op.kind}: raised {out!r}"] if isinstance(out, Exception) else op.check(out)
            if issues:
                self.failed += 1
                if op.fault:
                    self.faults[op.kind] = f"{op.fault} ({issues[0]})"
                else:
                    self.problems += issues

    @property
    def nominal(self) -> float:
        return reference.NOMINAL_S if self.wl.in_process else reference.SPAWN_NOMINAL_S

    def kernel_time(self, op_time: float) -> float:
        if self.wl.in_process:
            return reference.kernel_time(KERNEL_SHARE * op_time)
        return reference.spawn_time(self.env)


def end_to_end(run: Run, setup: list[float]) -> dict:
    who = resource.RUSAGE_SELF if run.wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "round_ms": median_ms([t for _, t in run.rounds]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, names: list[str], found: set[str], probes: dict, samples: dict):
    """Per-layer values by metric name; also the names whose layer no longer exists.

    ``<module>.<name>.calls`` and ``.self_s`` are per traced round. Audit self
    time is split by the regime of the operation that made the call.
    """
    tr = run.tracer
    traced = [t for flag, t in run.rounds if flag]
    untraced = [t for flag, t in run.rounds if not flag]
    n_traced = max(len(traced), 1)
    share = median_ms(traced) / median_ms(untraced) - 1.0
    names_by_span = [tr.names[s[0]] for s in tr.spans]
    roots = tr.roots()
    calls, self_s, audit_self = defaultdict(int), defaultdict(float), defaultdict(float)
    eig = checks_seen = 0
    for i, t in enumerate(tr.self_times()):
        name, root = names_by_span[i], names_by_span[roots[i]]
        calls[name] += 1
        self_s[name] += t
        if name == "inequality.audit_random":
            audit_self[root.split(".")[2]] += t
        # channel operations also diagonalise the projector and the output state
        if not root.startswith("op.channel."):
            eig += name == "linalg.hermitian_eig"
            checks_seen += name == "inequality.check_subadditivity"

    values, absent = {}, []
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name.startswith(AUDIT_SELF):
            values[name] = audit_self[name[len(AUDIT_SELF):]] / n_traced
            layer = "inequality.audit_random"
        elif stat in ("calls", "self_s"):
            values[name] = (calls if stat == "calls" else self_s)[layer] / n_traced
        else:
            if name in OP_METRICS:
                prefix, dims = OP_METRICS[name]
                ts = [t for k, ts in run.op_times.items() if k.startswith(prefix) for t in ts]
                values[name] = median_ms(ts) / samples.get(dims, 1)
            elif name in probes:
                values[name] = probes[name]
            else:
                values[name] = {
                    "linalg.eig_per_check": eig / checks_seen if checks_seen else 0.0,
                    "sweeps.csv_bytes": run.wl.csv_bytes / len(run.rounds),
                    "trace.overhead_ms": share * median_ms(untraced),
                    "trace.overhead_share": share,
                    "trace.spans_per_round": len(tr.spans) / n_traced,
                    "host.slowdown": statistics.median(run.kernel) / run.nominal,
                }[name]
            continue
        if layer not in found:
            absent.append(name)
    return values, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wqent", "__init__.py")):
        print("error: src/wqent not found; run from the root of a wqent checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        metric_specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    env = workloads.cli_env()
    tracer = Tracer()
    run = Run(wl, tracer, env)
    try:
        run.problems += [f"oracle: {p}" for p in oracle.self_test()]
        check, good, bad = wl.plant()
        run.problems += [f"plant, clean output: {p}" for p in check(good)]
        if not check(bad):
            run.problems.append("plant: an output off by 1e-6 passed the checks")

        probes, setup = {}, []
        if not args.trace:
            want = float(oracle.qutrit_mi(*workloads.WORKED))
            for _ in range(SETUP_REPEATS):
                dt, proc = timed_child(SETUP_CODE, env)
                setup.append(dt * reference.SPAWN_NOMINAL_S / reference.spawn_time(env))
                if proc.returncode != 0 or abs(float(proc.stdout or "nan") - want) > 1e-12:
                    run.problems.append(f"setup: exit {proc.returncode}, printed {proc.stdout.strip()!r}")
        else:
            for name, code in (("cli.interpreter_ms", "pass"), ("cli.import_ms", "import wqent.cli")):
                times = [timed_child(code, env) for _ in range(PROBE_REPEATS)]
                probes[name] = median_ms([dt for dt, _ in times])
                if any(p.returncode != 0 for _, p in times):
                    run.problems.append(f"{name}: probe exited non-zero")
        found = set(tracer.install())
        tracer.uninstall()

        start = time.perf_counter()
        r = 0
        while r < 2 or time.perf_counter() - start < args.seconds:
            run.round(r, traced=bool(args.trace) and r % 2 == 1)
            r += 1
        run.problems += wl.finish()

        if args.trace:
            samples = dict(workloads.AuditGeneral.SAMPLES)
            values, absent = per_layer(run, [m["name"] for m in metric_specs], found, probes, samples)
            tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
        else:
            values, absent = end_to_end(run, setup), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    info = dict(versions(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, rounds=len(run.rounds), problems=len(run.problems),
                counted_faults=run.faults, absent_layers=absent)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
