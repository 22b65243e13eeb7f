"""Smoke tests for the scripts in ``scripts/``, each run in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

from wqent.sweeps import grid_to_csv, sweep_probabilities, sweep_weights

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_make_figure_grids_writes_the_rendered_grids(tmp_path):
    res = run_script("make_figure_grids.py", "--grid-n", "7", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    expected = {
        "mi_prob_plane.csv": grid_to_csv(sweep_probabilities(7), [
            "grid_n=7 weights phi=(3/4,1/4) chi=(1/3,2/3)", "cells with p1 + p2 >= 1 omitted"]),
    }
    for region in ("a", "b"):
        expected[f"mi_weight_region_{region}.csv"] = grid_to_csv(
            sweep_weights(region, 7, p1=0.25, p2=0.125),
            [f"region={region} grid_n=7 p1=1/4 p2=1/8", "phi2 = 1 - phi1, chi2 = 1 - chi1"])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode()


def test_worked_example_prints_the_gap():
    res = run_script("run_worked_example.py")
    assert res.returncode == 0, res.stderr
    assert "gap  = S_A + S_B - S_AB = 0.0728012633763" in res.stdout.splitlines()


def test_compare_outputs_finds_a_tree_identical_to_itself():
    src = str(ROOT / "src")
    res = run_script("compare_outputs.py", src, src)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "DIFFERS" not in res.stdout
    assert res.stdout.splitlines()[-1] == "20 of 20 cases identical"
