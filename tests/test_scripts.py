"""Tests of ``scripts/``: ``compare_outputs.py`` run in a fresh interpreter, and ``bench_pairs.py``'s statistics
on canned ``perfbench/run.py`` output, with no benchmark run."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


SPECS = [{"name": "round_ms", "unit": "ms", "better": "lower", "bound": 0.2},
         {"name": "score", "unit": "ops", "better": "higher"}]


def run_stdout(round_ms, score=1.0, correct=True, failed=0):
    """Two lines as ``perfbench/run.py`` prints them last: its ``run`` info, then its result."""
    info = {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas", "nproc": 2, "blas_threads": 1,
            "workload": "figures-cli.cli", "seed": 1, "seconds": 12.0, "trace": 0}
    result = {"correct": correct, "attempted": 120, "failed": failed,
              "metrics": {"round_ms": {"value": round_ms, "unit": "ms"}, "score": {"value": score, "unit": "ops"}}}
    return f"{json.dumps({'run': info})}\n{json.dumps(result)}\n"


def canned_pairs(parent, change):
    bench_pairs = load_script("bench_pairs")
    return [(bench_pairs.parse_run(run_stdout(a))[1], bench_pairs.parse_run(run_stdout(b))[1])
            for a, b in zip(parent, change)]


PARENT = [1300.0, 1290.0, 1310.0, 1295.0, 1305.0, 1280.0, 1320.0, 1300.0, 1298.0, 1302.0]


class TestBenchPairs:
    def test_parse_run_reads_the_last_two_lines(self):
        bench_pairs = load_script("bench_pairs")
        info, result = bench_pairs.parse_run("warming up\n" + run_stdout(1234.5))
        assert info["nproc"] == 2 and info["blas_threads"] == 1
        assert result["metrics"]["round_ms"]["value"] == 1234.5

    @pytest.mark.parametrize("code, stdout, reason", [
        (0, run_stdout(1.0), None),
        (0, run_stdout(1.0, correct=False), "not correct"),
        (0, run_stdout(1.0, failed=2), "2 failed operations"),
        (2, "", "exit 2, no result line"),
    ])
    def test_a_run_that_is_not_correct_or_failed_an_operation_is_refused(self, code, stdout, reason):
        bench_pairs = load_script("bench_pairs")
        result = bench_pairs.parse_run(stdout)[1] if stdout else None
        assert bench_pairs.refusal(code, result) == reason

    def test_nine_of_ten_pairs_and_medians_apart_by_more_than_the_iqr_is_better(self):
        bench_pairs = load_script("bench_pairs")
        change = [x - 170.0 for x in PARENT[:9]] + [PARENT[9] + 1.0]
        m = bench_pairs.summarize(canned_pairs(PARENT, change), SPECS[:1])["round_ms"]
        assert m["parent"]["values"] == PARENT
        assert m["parent"]["median"] == 1300.0
        assert m["parent"]["quartiles"] == [1295.75, 1304.25]
        assert m["change"]["median"] == 1130.0
        assert (m["pairs_won"], m["verdict"], m["within_bound"]) == (9, "better", True)

    def test_eight_of_ten_pairs_is_unresolved(self):
        bench_pairs = load_script("bench_pairs")
        change = [x - 170.0 for x in PARENT[:8]] + [x + 1.0 for x in PARENT[8:]]
        m = bench_pairs.summarize(canned_pairs(PARENT, change), SPECS[:1])["round_ms"]
        assert (m["pairs_won"], m["verdict"]) == (8, "unresolved")

    def test_medians_apart_by_less_than_the_iqr_are_unresolved(self):
        bench_pairs = load_script("bench_pairs")
        # the parent's quartiles are 8.5 apart: ten wins by 8 do not resolve, ten by 9 do
        for drop, verdict in [(8.0, "unresolved"), (9.0, "better")]:
            m = bench_pairs.summarize(canned_pairs(PARENT, [x - drop for x in PARENT]), SPECS[:1])["round_ms"]
            assert (m["pairs_won"], m["verdict"]) == (10, verdict)

    def test_fewer_than_ten_pairs_are_unresolved(self):
        bench_pairs = load_script("bench_pairs")
        m = bench_pairs.summarize(canned_pairs(PARENT[:9], [x - 170.0 for x in PARENT[:9]]), SPECS[:1])["round_ms"]
        assert (m["pairs_won"], m["verdict"], m["within_bound"]) == (9, "unresolved", True)

    def test_a_loss_beyond_the_bound_is_worse_and_out_of_bounds(self):
        bench_pairs = load_script("bench_pairs")
        for rise, within in [(1.19, True), (1.21, False)]:
            m = bench_pairs.summarize(canned_pairs(PARENT, [x * rise for x in PARENT]), SPECS[:1])["round_ms"]
            assert (m["pairs_won"], m["verdict"], m["within_bound"]) == (0, "worse", within)

    def test_a_metric_where_higher_is_better_counts_rises_as_wins(self):
        bench_pairs = load_script("bench_pairs")
        pairs = [({"metrics": {"score": {"value": 1.0 + i / 100}}}, {"metrics": {"score": {"value": 2.0}}})
                 for i in range(10)]
        m = bench_pairs.summarize(pairs, SPECS[1:])["score"]
        assert (m["pairs_won"], m["verdict"]) == (10, "better")
        assert "within_bound" not in m

    def test_a_bare_workload_runs_ten_pairs_and_w_equals_pairs_sets_its_own(self):
        bench_pairs = load_script("bench_pairs")
        assert bench_pairs.plan(["figures-cli.cli", "scalar-check.small=3"]) == {
            "figures-cli.cli": 10, "scalar-check.small": 3}

    def test_the_seeds_follow_from_the_parent_sha(self):
        bench_pairs = load_script("bench_pairs")
        assert bench_pairs.first_seed("6251513aa3d647aca76697271286a804e5ed7ea0") == 0x625151 % 10**6 == 443345
