"""Smoke test for ``scripts/compare_outputs.py``, run in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_compare_outputs_finds_a_tree_identical_to_itself():
    src = str(ROOT / "src")
    res = run_script("compare_outputs.py", src, src)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "DIFFERS" not in res.stdout
    assert res.stdout.splitlines()[-1] == "30 of 30 cases identical"
