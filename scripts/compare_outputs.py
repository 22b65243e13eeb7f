"""Compare the CLI outputs of two wqent source trees byte for byte.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. Every case
runs in a fresh interpreter with ``PYTHONPATH`` set to one of them. The cases,
listed once in ``cases()``, cover the default sweep CSVs, a probability sweep
with values of 1 and above, one whose values are all zero, a 257x257 weight
sweep, audits in every regime, each within one chunk and across several, ``entropy``,
``check``, ``channel`` and ``qutrit`` on the worked example, ``check`` and
``channel`` on the non-commuting fixture, ``check`` on a dense complex 2x3
state, finite entries whose sums or products overflow a float, weighted mass
off a reduced support, failing calls for every error exit code (2 to 5), the help texts, a usage
error and an unknown command, the calls that fail before a matrix is built. One case renders
the three figure grids at four parameter sets in a single interpreter, so
later renders repeat a layout, and prints the sha256 of each CSV.
A case differs when its exit code, stdout or stderr does.
Each differing case is named; the exit code is 1 if any case differs, else 0.
Two interpreters run at a time.
"""

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

JOBS = 2
COUNTEREXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "tests/fixtures/noncommuting_counterexample"

# the worked example: diag(0.1, 0.1, 0.8, 0) split 2x2, weights diag(3/4, 1/4) and diag(1/3, 2/3)
# and their product
MATRICES = {
    "state": [0.1, 0.1, 0.8, 0.0],
    "wa": [0.75, 0.25],
    "wb": [1 / 3, 2 / 3],
    "wab": [a * b for a in (0.75, 0.25) for b in (1 / 3, 2 / 3)],
    "proj": [1.0, 0.0, 1.0, 0.0],
    "proj_dead": [0.0, 0.0, 0.0, 1.0],  # annihilates the state: channel undefined
    # finite entries whose sums or products overflow a float
    "w200": [1e200, 1.0],
    "w308": [1e308, 1.0, 1.0, 1.0],
    "proj_big": [1e308, 0.0, 0.0, 0.0],
}
TRUNCATED = '{"dim": 4, "re": [[1, 0'

# the figure grids at the paper's parameters, at two other sets, then at the paper's again:
# (phi1, phi2, chi1, chi2) for the probability grid and (p1, p2) for the weight grids
FIGURE_RENDERS = """
import hashlib
from wqent.sweeps import grid_to_csv, sweep_probabilities, sweep_weights
for prob, weight in [((), ()), ((0.5, 0.5, 0.2, 0.8), (0.1, 0.3)), ((0.9, 0.1, 0.4, 0.6), (0.6, 0.2)), ((), ())]:
    grids = [sweep_probabilities(97, *prob)] + [sweep_weights(region, 97, *weight) for region in "ab"]
    for grid in grids:
        print(hashlib.sha256(grid_to_csv(grid, [f"{prob} {weight} 100%"]).encode()).hexdigest())
"""


def dense_psd(dim: int, seed: int, unit_trace: bool) -> dict:
    """``G G^dagger`` as a matrix file, for ``G`` with seeded complex entries; scaled to trace 1 if asked."""
    rng = random.Random(seed)
    g = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(dim)]
    m = [[sum(g[i][k] * g[j][k].conjugate() for k in range(dim)) for j in range(dim)] for i in range(dim)]
    scale = sum(m[i][i].real for i in range(dim)) if unit_trace else 1.0
    return {"dim": dim, "re": [[x.real / scale for x in row] for row in m],
            "im": [[x.imag / scale for x in row] for row in m]}


# a dense complex 2x3 state and dense weights, whose spectra have no preferred phases
DENSE = {
    "dense_state": dense_psd(6, 1, True),
    "dense_wa": dense_psd(2, 2, False),
    "dense_wb": dense_psd(3, 3, False),
}


# rho_A = diag(1, 0), yet phi rho puts 4.8e-4 of weighted mass on its kernel (the -1.8e-5 eigenvalue passes
# at --tol 2e-5); and weights whose product phi rho overflows, so both reduced weighted states, and their
# off-support masses, are NaN
FULL = {
    "leaky_state": [[0.5, 0.0, 0.0, 3e-3], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [3e-3, 0.0, 0.0, 0.0]],
    "leak_weight": [[1.0, 0.4], [0.4, 1.0]],
    "uniform": [[0.25] * 4] * 4,
    "w1e154": [[1e154] * 2] * 2,
}


def cases(files: dict) -> dict:
    """Case name -> arguments after the interpreter."""
    cli = ["-m", "wqent.cli"]
    out = {
        "sweep prob": cli + ["sweep", "prob"],
        "sweep weight a": cli + ["sweep", "weight", "--region", "a"],
        "sweep weight b": cli + ["sweep", "weight", "--region", "b"],
        "sweep prob grid-n 1": cli + ["sweep", "prob", "--grid-n", "1"],
        # values of 1 and above, which printf writes
        "sweep prob phi1 2 phi2 0.05 chi1 0.05 chi2 2": cli + [
            "sweep", "prob", "--phi1", "2", "--phi2", "0.05", "--chi1", "0.05", "--chi2", "2"],
        # every value is +0.0, which printf writes
        "sweep prob phi1 0 phi2 0 chi1 0 chi2 0": cli + [
            "sweep", "prob", "--phi1", "0", "--phi2", "0", "--chi1", "0", "--chi2", "0"],
        "sweep weight b p1 0.6 p2 0.2 grid-n 257": cli + [
            "sweep", "weight", "--region", "b", "--p1", "0.6", "--p2", "0.2", "--grid-n", "257"],
        "figure grids at four parameter sets in one interpreter": ["-c", FIGURE_RENDERS],
    }
    for regime in ("diagonal-condition-satisfying", "diagonal-unconstrained"):
        for seed in range(3):
            out[f"audit {regime} n=1000 seed={seed}"] = cli + [
                "audit", "--n", "1000", "--seed", str(seed), "--regime", regime]
    for regime in ("diagonal-condition-satisfying", "diagonal-unconstrained"):
        out[f"audit {regime} n=100000 seed=5"] = cli + [
            "audit", "--n", "100000", "--seed", "5", "--regime", regime]
    # several chunks (8192 samples each at 2x2, 3640 at 2x3, 1618 at 3x3): weights drawn per chunk,
    # each chunk normalized on its own, and the resampler's blocks cross chunk boundaries
    for regime in ("diagonal-condition-satisfying", "diagonal-unconstrained"):
        out[f"audit {regime} n=20000 seed=3"] = cli + ["audit", "--n", "20000", "--seed", "3", "--regime", regime]
    for dims in ("2x3", "3x3"):
        out[f"audit diagonal-unconstrained {dims} n=20000 seed=3"] = cli + [
            "audit", "--n", "20000", "--seed", "3", "--dims", dims, "--regime", "diagonal-unconstrained"]
    # at 3x3 no row or column has a single cell, so no group term reuses its cell's log
    for dims in ("2x3", "3x3"):
        out[f"audit diagonal-unconstrained {dims} n=2000 seed=1"] = cli + [
            "audit", "--n", "2000", "--seed", "1", "--dims", dims, "--regime", "diagonal-unconstrained"]
    for dims in ("2x2", "2x3"):
        out[f"audit general-unconstrained {dims} n=2000 seed=1"] = cli + [
            "audit", "--n", "2000", "--seed", "1", "--dims", dims, "--regime", "general-unconstrained"]
    # three chunks of 8192 2x2 samples with 24, 20 and 6 violators, joined into one table
    out["audit general-unconstrained 2x2 n=20000 seed=0"] = cli + [
        "audit", "--n", "20000", "--seed", "0", "--regime", "general-unconstrained"]
    # 4 violators over six chunks of 3640: A's 2x2 reduced states take the closed form, B's 3x3 ones eigh
    out["audit general-unconstrained 2x3 n=20000 seed=1"] = cli + [
        "audit", "--n", "20000", "--seed", "1", "--dims", "2x3", "--regime", "general-unconstrained"]
    out["entropy worked example"] = cli + ["entropy", files["state"], files["wab"]]
    for tol in ([], ["--tol", "1e-6"]):
        name = " ".join(["worked example"] + tol)
        out[f"check {name}"] = cli + ["check", files["state"], files["wa"], files["wb"]] + tol
        out[f"channel {name}"] = cli + ["channel", files["state"], files["proj"]] + tol
    out["check noncommuting counterexample"] = cli + [
        "check", *(str(COUNTEREXAMPLE / f"{k}.json") for k in ("rho", "phi_a", "phi_b"))]
    out["channel noncommuting counterexample"] = cli + ["channel", str(COUNTEREXAMPLE / "rho.json"), files["proj"]]
    out["check dense 2x3"] = cli + [
        "check", files["dense_state"], files["dense_wa"], files["dense_wb"], "--dims", "2x3"]
    out["qutrit worked example"] = cli + ["qutrit", "0.1", "0.1", "0.75", "0.25", repr(1 / 3), repr(2 / 3)]
    out["qutrit 0.5 0.5 1 0 0 1"] = cli + ["qutrit", "0.5", "0.5", "1", "0", "0", "1"]
    out["qutrit 0.1 0.1 1e5 0 1e5 0"] = cli + ["qutrit", "0.1", "0.1", "1e5", "0", "1e5", "0"]
    out["entropy worked example weight diag(1e308, 1, 1, 1)"] = cli + ["entropy", files["state"], files["w308"]]
    out["exit 2: check worked example weights diag(1e200, 1)"] = cli + [
        "check", files["state"], files["w200"], files["w200"]]
    out["exit 2: channel worked example diag(1e308, 0, 0, 0)"] = cli + ["channel", files["state"], files["proj_big"]]
    out["exit 2: check leaky state --tol 2e-5"] = cli + [
        "check", files["leaky_state"], files["leak_weight"], files["leak_weight"], "--tol", "2e-5"]
    out["exit 2: check uniform state weights full(1e154)"] = cli + [
        "check", files["uniform"], files["w1e154"], files["w1e154"]]
    out["exit 2: sweep prob grid-n 0"] = cli + ["sweep", "prob", "--grid-n", "0"]
    out["exit 2: sweep prob grid-n 1 phi1 nan"] = cli + ["sweep", "prob", "--grid-n", "1", "--phi1", "nan"]
    # finite weights whose product overflows a float
    out["exit 2: sweep prob phi1 2e154 chi1 1e154"] = cli + ["sweep", "prob", "--phi1", "2e154", "--chi1", "1e154"]
    out["exit 3: audit diagonal-condition-satisfying 2x3"] = cli + [
        "audit", "--dims", "2x3", "--regime", "diagonal-condition-satisfying"]
    out["exit 4: channel worked example diag(0, 0, 0, 1)"] = cli + [
        "channel", files["state"], files["proj_dead"]]
    out["exit 5: entropy truncated file"] = cli + ["entropy", files["truncated"], files["wab"]]
    out["exit 2: sweep weight a --out a directory"] = cli + [
        "sweep", "weight", "--region", "a", "--out", files["directory"]]
    for args in (["--help"], ["check", "--help"], ["sweep", "weight", "--help"]):
        out[" ".join(args)] = cli + args
    out["exit 2: qutrit 0.1"] = cli + ["qutrit", "0.1"]
    out["exit 2: unknown command"] = cli + ["nosuchcommand"]
    out["exit 5: entropy missing file"] = cli + ["entropy", files["missing"], files["wab"]]
    out["exit 3: check worked example --dims 2x3"] = cli + [
        "check", files["state"], files["wa"], files["wb"], "--dims", "2x3"]
    return out


def write_matrices(directory: pathlib.Path) -> dict:
    files = {}
    for name, diag in MATRICES.items():
        re = [[diag[i] if i == j else 0.0 for j in range(len(diag))] for i in range(len(diag))]
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"dim": len(diag), "re": re}))
        files[name] = str(path)
    for name, matrix in DENSE.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(matrix))
        files[name] = str(path)
    for name, re in FULL.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"dim": len(re), "re": re}))
        files[name] = str(path)
    path = directory / "truncated.json"
    path.write_text(TRUNCATED)
    files["truncated"] = str(path)
    files["missing"] = str(directory / "missing.json")
    files["directory"] = str(directory)
    return files


def run(src: pathlib.Path, args: list, cwd: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable] + args, cwd=cwd, env=env, capture_output=True, timeout=600)
    return res.returncode, res.stdout, res.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src", type=pathlib.Path)
    ap.add_argument("new_src", type=pathlib.Path)
    args = ap.parse_args(argv)
    trees = [args.old_src.resolve(), args.new_src.resolve()]
    for src in trees:
        if not (src / "wqent").is_dir():
            ap.error(f"{src} holds no wqent package")

    with tempfile.TemporaryDirectory() as tmp:
        todo = cases(write_matrices(pathlib.Path(tmp)))
        with ThreadPoolExecutor(JOBS) as pool:
            results = {name: [pool.submit(run, src, case, tmp) for src in trees] for name, case in todo.items()}
            differing = []
            for name, (old, new) in results.items():
                same = old.result() == new.result()
                print(f"{'same' if same else 'DIFFERS'}  {name}")
                if not same:
                    differing.append(name)
    print(f"{len(todo) - len(differing)} of {len(todo)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
