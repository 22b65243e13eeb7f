"""Paired benchmark runs of a parent commit against a change, written to ``bench/BENCH_<parent>.json``.

Usage, from a wqent checkout:

    python scripts/bench_pairs.py PARENT_REV [--workload W[=PAIRS]]...

The change is the working tree: its tracked files and the untracked ones git
does not ignore, as ``git add -A`` would commit them. Both sides are exported
with ``git archive`` into a temporary directory; the working tree is first
written as a tree object through a temporary index, so the checkout's index
and refs do not move.

Each workload (default: every workload of ``BENCHMARK.json``) runs 10 pairs,
or PAIRS pairs when it is given as ``W=PAIRS``. Pair i runs ``perfbench/run.py
--workload W --seed SEED+i --seconds S --trace 0`` in each tree, the parent
first in even pairs and the change first in odd ones. S is ``BENCHMARK.json``'s
``run_seconds``; SEED is ``int(sha[:6], 16) % 10**6`` of the parent's sha, so
each parent gets its own seeds. The bytecode policy is fixed and recorded:
every ``__pycache__`` of a tree is removed before each of its runs, and the
runs have ``PYTHONDONTWRITEBYTECODE=1``, so each run compiles what it imports
from source. A run that exits non-zero, is not ``correct`` or has
``failed > 0`` is refused: the script stops with exit 1, keeping only the
workloads already finished.

The file is named after the parent, the one commit known before the change is
committed, and is rewritten as each workload finishes. For each workload and
end-to-end metric it holds both sides' values, medians and quartiles, the pairs
the change won, and a verdict: ``better`` when there are at least 10 pairs,
the change wins at least 9 in 10 of them and its median beats the parent's by
more than the parent's interquartile range, ``worse`` when the same holds the
other way round, else ``unresolved``; and whether the change's median is within
the metric's bound in ``BENCHMARK.json``. It also records the seeds, the
seconds, both sides, the git tree ids of each side's ``src/wqent`` and
``perfbench`` (the code the runs measured, comparable with any later commit's),
the host's ``nproc``, the Python, numpy and BLAS versions and the BLAS threads.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
BYTECODE = "PYTHONDONTWRITEBYTECODE=1, every __pycache__ removed before each run: each run compiles from source"
MIN_PAIRS = 10
MEASURED = ("src/wqent", "perfbench")
RULE = (f"better: at least {MIN_PAIRS} pairs, the change wins at least 9 in 10 of them and its median beats the "
        "parent's by more than the parent's interquartile range; worse: the same the other way round; else unresolved")
HOST_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def snapshot_worktree(tmp: str) -> str:
    """The working tree as a git tree object, written through a temporary index."""
    index = os.path.join(tmp, "index")
    shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
    env = dict(os.environ, GIT_INDEX_FILE=index)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(treeish: str, dest: pathlib.Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", treeish], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The ``run`` info and the result of one ``perfbench/run.py`` run, from its last two stdout lines."""
    *_, info, result = stdout.splitlines()
    return json.loads(info)["run"], json.loads(result)


def refusal(code: int, result: dict | None) -> str | None:
    """Why a run cannot be used, or ``None`` when it can."""
    if code != 0 or result is None:
        return f"exit {code}" + ("" if result else ", no result line")
    if result["correct"] is not True:
        return "not correct"
    if result["failed"] > 0:
        return f"{result['failed']} failed operations"
    return None


def first_seed(parent: str) -> int:
    return int(parent[:6], 16) % 10**6


def code_trees(treeish: str) -> dict:
    """The git tree ids of what a benchmark run executes."""
    return {path: git("rev-parse", f"{treeish}:{path}") for path in MEASURED}


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
                          text=True, timeout=120 + 10 * seconds)
    try:
        info, result = parse_run(proc.stdout)
    except (ValueError, KeyError):
        info, result = {}, None
    problem = refusal(proc.returncode, result)
    if problem:
        sys.exit(f"refused: {tree.name} {workload} seed {seed}: {problem}\n{proc.stderr[-2000:]}")
    return info, result


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[tuple[dict, dict]], specs: list[dict]) -> dict:
    """Per end-to-end metric of ``specs``: both sides' values, medians and quartiles, the pairs the change won,
    the verdict and the bound check. ``pairs`` holds one ``(parent result, change result)`` per pair."""
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = {side: [p[i]["metrics"][name]["value"] for p in pairs] for i, side in enumerate(("parent", "change"))}
        # the change's margin per pair and at the medians: positive where it is better
        margins = [sign * (a - b) for a, b in zip(sides["parent"], sides["change"])]
        median = {side: statistics.median(xs) for side, xs in sides.items()}
        margin = sign * (median["parent"] - median["change"])
        q1, q3 = quartiles(sides["parent"])
        won, lost = sum(m > 0 for m in margins), sum(m < 0 for m in margins)
        enough = len(pairs) >= MIN_PAIRS
        if enough and won >= 0.9 * len(pairs) and margin > q3 - q1:
            verdict = "better"
        elif enough and lost >= 0.9 * len(pairs) and -margin > q3 - q1:
            verdict = "worse"
        else:
            verdict = "unresolved"
        entry = {"unit": spec["unit"], "better": spec["better"]}
        for side, xs in sides.items():
            entry[side] = {"values": xs, "median": median[side], "quartiles": quartiles(xs)}
        entry.update(pairs_won=won, verdict=verdict)
        if "bound" in spec:
            entry.update(bound=spec["bound"], within_bound=-margin <= spec["bound"] * abs(median["parent"]))
        out[name] = entry
    return out


def plan(workloads: list[str]) -> dict:
    """Workload name -> pairs, from ``W`` (``MIN_PAIRS`` pairs) or ``W=PAIRS`` arguments."""
    out = {}
    for arg in workloads:
        name, _, n = arg.partition("=")
        out[name] = int(n) if n else MIN_PAIRS
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("--workload", action="append",
                    help=f"W ({MIN_PAIRS} pairs) or W=PAIRS, repeatable (default: every workload)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    todo = plan(args.workload or [w["name"] for w in bench["workloads"]])
    seconds = float(bench["run_seconds"])
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    out_path = ROOT / "bench" / f"BENCH_{git('rev-parse', '--short', parent)}.json"

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        worktree = snapshot_worktree(tmp)
        change = {"working_tree": worktree, "head": git("rev-parse", "HEAD")}
        trees = {"parent": pathlib.Path(tmp, "parent"), "change": pathlib.Path(tmp, "change")}
        export(parent, trees["parent"])
        export(worktree, trees["change"])
        doc = {"source": "scripts/bench_pairs.py", "parent": parent, "change": change,
               "measured": {"parent": code_trees(parent), "change": code_trees(worktree)}, "seconds": seconds,
               "trace": 0, "order": "alternating: the parent first in even pairs", "bytecode": BYTECODE,
               "rule": RULE, "host": None, "workloads": {}}
        for workload, n in todo.items():
            seeds = [first_seed(parent) + i for i in range(n)]
            pairs = []
            for i, seed in enumerate(seeds):
                got = {}
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    info, got[side] = run_once(trees[side], workload, seed, seconds)
                    doc["host"] = {k: info[k] for k in HOST_KEYS}
                pairs.append((got["parent"], got["change"]))
                values = {side: {k: v["value"] for k, v in r["metrics"].items()} for side, r in got.items()}
                print(f"{workload} pair {i + 1}/{n} seed {seed}: " + ", ".join(
                    f"{k} {v:.4g} -> {values['change'][k]:.4g}" for k, v in values["parent"].items()), file=sys.stderr)
            metrics = summarize(pairs, bench["end_to_end"])
            doc["workloads"][workload] = {"seeds": seeds, "metrics": metrics}
            out_path.parent.mkdir(exist_ok=True)
            out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            for name, m in metrics.items():
                print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} {m['unit']}, "
                      f"won {m['pairs_won']} of {n}, {m['verdict']}")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
