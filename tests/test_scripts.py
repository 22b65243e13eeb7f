"""Smoke test for ``scripts/compare_outputs.py``, run in a fresh interpreter."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_finds_a_tree_identical_to_itself(tmp_path):
    compare_outputs = load_script("compare_outputs")
    count = len(compare_outputs.cases(compare_outputs.write_matrices(tmp_path)))
    src = str(ROOT / "src")
    res = run_script("compare_outputs.py", src, src)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "DIFFERS" not in res.stdout
    assert res.stdout.splitlines()[-1] == f"{count} of {count} cases identical"
