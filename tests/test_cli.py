import dataclasses
import gc
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cli_runner import CliRunner
from json_oracle import audit_payload, channel_payload, report_to_dict
from wqent.cli import audit_to_json, main
from wqent.entropy import qutrit_mutual_information_closed_form
from wqent.errors import DimensionError
from wqent.linalg import DEFAULT_TOL
from wqent.inequality import _REPORT_NAMES, AUDIT_REGIMES, AuditSummary, SubadditivityReport, audit_random
from wqent.states import haar_unitary


@pytest.fixture
def runner():
    return CliRunner()


def write_matrix(path, re, im=None):
    re = np.asarray(re, dtype=float)
    payload = {"dim": re.shape[0], "re": re.tolist()}
    if im is not None:
        payload["im"] = np.asarray(im, dtype=float).tolist()
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def example_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("example")
    return {
        "state": write_matrix(tmp / "state.json", np.diag([0.1, 0.1, 0.8, 0.0])),
        "wa": write_matrix(tmp / "wa.json", np.diag([0.75, 0.25])),
        "wb": write_matrix(tmp / "wb.json", np.diag([1 / 3, 2 / 3])),
        "proj": write_matrix(tmp / "proj.json", np.diag([1.0, 0.0, 1.0, 0.0])),
    }


class TestEntropyCommand:
    def test_happy_path(self, runner, tmp_path):
        state = write_matrix(tmp_path / "s.json", np.eye(2) / 2)
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", state, weight])
        assert result.exit_code == 0
        assert abs(float(result.output) - math.log(2)) < 1e-12

    def test_complex_input(self, runner, tmp_path):
        state = write_matrix(
            tmp_path / "s.json", [[0.5, 0.0], [0.0, 0.5]], im=[[0.0, 0.1], [-0.1, 0.0]]
        )
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", state, weight])
        assert result.exit_code == 0

    def test_invalid_state_exits_2(self, runner, tmp_path):
        state = write_matrix(tmp_path / "s.json", np.diag([1.5, -0.5]))
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", state, weight])
        assert result.exit_code == 2
        assert "positive semidefinite" in result.stderr

    def test_nan_entries_exit_2(self, runner, tmp_path):
        # json accepts the NaN literal; validation must reject it
        state = tmp_path / "s.json"
        state.write_text('{"dim": 2, "re": [[0.5, NaN], [NaN, 0.5]]}')
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(state), weight])
        assert result.exit_code == 2
        assert "NaN or infinite" in result.stderr

    def test_infinity_entry_exits_2(self, runner, tmp_path):
        state = tmp_path / "s.json"
        state.write_text('{"dim": 2, "re": [[Infinity, 0], [0, 0]]}')
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(state), weight])
        assert result.exit_code == 2
        assert "NaN or infinite" in result.stderr

    @pytest.mark.parametrize("command", ["entropy", "check"])
    def test_integer_too_large_for_a_float_exits_5(self, runner, tmp_path, command):
        state = tmp_path / "s.json"
        state.write_text('{"dim": 2, "re": [[0, 0], [0, 1%s]]}' % ("0" * 400))
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        weights = [weight] if command == "entropy" else [weight, weight]
        result = runner.invoke(main, [command, str(state), *weights])
        assert result.exit_code == 5
        assert "row 1, column 1 is too large for a float" in result.stderr

    def test_tol_accepts_noise_eigenvalue(self, runner, tmp_path):
        p = [0.4 + 1e-8, 0.35, 0.25, -1e-8]
        w = [0.5, 1.0, 1.5, 2.0]
        state = write_matrix(tmp_path / "s.json", np.diag(p))
        weight = write_matrix(tmp_path / "w.json", np.diag(w))
        strict = runner.invoke(main, ["entropy", state, weight])
        assert strict.exit_code == 2
        result = runner.invoke(main, ["entropy", "--tol", "1e-6", state, weight])
        assert result.exit_code == 0
        expected = -sum(wi * pi * math.log(pi) for wi, pi in zip(w[:3], p[:3]))
        assert abs(float(result.output) - expected) < 1e-11

    def test_dim_mismatch_exits_3(self, runner, example_files, tmp_path):
        weight = write_matrix(tmp_path / "w2.json", np.eye(2))
        result = runner.invoke(main, ["entropy", example_files["state"], weight])
        assert result.exit_code == 3

    def test_broken_json_exits_5(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1, 2], [3, ]]}')
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert "line 1" in result.stderr

    def test_missing_file_exits_5(self, runner, tmp_path):
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(tmp_path / "nope.json"), weight])
        assert result.exit_code == 5

    @pytest.mark.parametrize("content, message", [
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        (b"\xff\xfe{\x00}\x00", "not UTF-8 text"),
    ], ids=["nested", "utf16"])
    def test_unreadable_json_exits_5(self, runner, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert result.stderr.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("content, message", [
        ("[]", "top level must be an object"),
        ('{"dim": 2}', "required keys 'dim' and 're' missing"),
        ('{"dim": 0, "re": []}', "'dim' must be a positive integer, got 0"),
        ('{"dim": true, "re": []}', "'dim' must be a positive integer, got True"),
        ('{"dim": 2.0, "re": []}', "'dim' must be a positive integer, got 2.0"),
        ('{"dim": 2, "re": [[1, 0]]}', "'re' must be a list of 2 rows, found 1"),
        ('{"dim": 2, "re": "x"}', "'re' must be a list of 2 rows, found str"),
    ])
    def test_malformed_structure_exits_5(self, runner, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert result.stderr == f"error: {bad}: {message}\n"

    def test_wrong_row_length_reports_row(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1.0, 0.0], [0.0]]}')
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert "row 1" in result.stderr

    def test_rows_are_checked_before_the_matrix_is_allocated(self, runner, tmp_path):
        # 100000 empty rows: a 400 KB file that declares a 74.5 GiB matrix
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 100000, "re": [%s]}' % ",".join(["[]"] * 100_000))
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert result.stderr == f"error: {bad}: 're' row 0 must have 100000 entries\n"

    def test_pure_state_entropy_prints_positive_zero(self, runner, tmp_path):
        state = write_matrix(tmp_path / "s.json", np.diag([1.0, 0.0, 0.0, 0.0]))
        weight = write_matrix(tmp_path / "w.json", np.eye(4))
        result = runner.invoke(main, ["entropy", state, weight])
        assert result.exit_code == 0
        assert result.output == "0\n"

    def test_non_number_entry_reports_position(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1.0, 0.0], [0.0, "x"]]}')
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["entropy", str(bad), weight])
        assert result.exit_code == 5
        assert "row 1" in result.stderr and "column 1" in result.stderr


class TestCheckCommand:
    def test_worked_example_report(self, runner, example_files):
        result = runner.invoke(
            main, ["check", example_files["state"], example_files["wa"], example_files["wb"]]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert abs(report["gap"] - 0.07280126337634046) < 1e-12
        assert abs(report["condition_lhs"] - 0.14166666666666666) < 1e-15
        assert report["condition_holds"] is True
        assert report["subadditivity_holds"] is True

    def test_out_flag_writes_same_bytes(self, runner, example_files, tmp_path):
        out = tmp_path / "report.json"
        args = ["check", example_files["state"], example_files["wa"], example_files["wb"]]
        piped = runner.invoke(main, args)
        written = runner.invoke(main, args + ["--out", str(out)])
        assert written.exit_code == 0
        assert out.read_text() == piped.output

    def test_pure_state_entropies_are_positive_zeros(self, runner, tmp_path):
        state = write_matrix(tmp_path / "s.json", np.diag([1.0, 0.0, 0.0, 0.0]))
        weight = write_matrix(tmp_path / "w.json", np.eye(2))
        result = runner.invoke(main, ["check", state, weight, weight])
        assert result.exit_code == 0
        for k in ("s_ab", "s_a", "s_b"):
            assert f'"{k}": 0.0,' in result.output, k

    def test_2x3_system(self, runner, tmp_path):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.2, 0.3, 0.5]))
        state = write_matrix(tmp_path / "s.json", rho)
        wa = write_matrix(tmp_path / "wa.json", np.eye(2))
        wb = write_matrix(tmp_path / "wb.json", np.eye(3))
        result = runner.invoke(main, ["check", state, wa, wb, "--dims", "2x3"])
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["gap"]) < 1e-9

    def test_wrong_dims_exits_3(self, runner, example_files):
        result = runner.invoke(
            main,
            ["check", example_files["state"], example_files["wa"], example_files["wb"], "--dims", "2x3"],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8", "1", "2"])
    def test_bad_tol_exits_2(self, runner, tmp_path, tol):
        # one unmirrored off-diagonal entry: only a working Hermiticity check rejects it
        m = np.diag([0.25, 0.25, 0.25, 0.25])
        m[0, 3] = 0.3
        state = write_matrix(tmp_path / "bad.json", m)
        wa = write_matrix(tmp_path / "wa.json", np.eye(2))
        result = runner.invoke(main, ["check", state, wa, wa, "--tol", tol])
        assert result.exit_code == 2
        assert "positive and finite" in result.stderr

    def test_leak_is_judged_at_tol(self, runner, example_files, tmp_path):
        # 8.3e-10 of weighted mass off the support of rho_A is noise at --tol 1e-6
        state = write_matrix(tmp_path / "s.json", np.diag([0.5, 0.5, 1e-8, -1e-8]))
        args = ["check", state, example_files["wa"], example_files["wb"], "--tol", "1e-6"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert json.loads(result.output)["subadditivity_holds"] is True

    def test_garbage_dims_exits_2(self, runner, example_files):
        result = runner.invoke(
            main,
            ["check", example_files["state"], example_files["wa"], example_files["wb"], "--dims", "two"],
        )
        assert result.exit_code == 2


class TestQutritCommand:
    def test_worked_example(self, runner):
        result = runner.invoke(
            main, ["qutrit", "0.1", "0.1", "0.75", "0.25", str(1 / 3), str(2 / 3)]
        )
        assert result.exit_code == 0
        lines = dict(
            line.split(" = ") for line in result.output.strip().splitlines() if " = " in line
        )
        assert abs(float(lines["mutual_information"]) - 0.0728) < 5e-4
        assert "(holds)" in lines["weight_condition_value"]
        assert float(lines["cross_check_delta"]) < 1e-9
        assert result.stderr == ""

    def test_condition_failing_weights(self, runner):
        result = runner.invoke(
            main, ["qutrit", "0.1", "0.1", "0.25", "0.75", str(1 / 3), str(2 / 3)]
        )
        assert result.exit_code == 0
        assert "(fails)" in result.output

    def test_invalid_simplex_exits_2(self, runner):
        result = runner.invoke(main, ["qutrit", "0.7", "0.4", "1", "1", "1", "1"])
        assert result.exit_code == 2

    def test_boundary_input_is_evaluated_as_given(self, runner):
        # p3 = 1 - p1 - p2 is -1e-13: the cross-check embeds that p3, not a clipped one
        result = runner.invoke(main, ["qutrit", "0.5", "0.5000000000001", "0.75", "0.25", str(1 / 3), str(2 / 3)])
        assert result.exit_code == 0
        delta = float(result.output.split("cross_check_delta = ")[1])
        assert delta <= 1e-15

    def test_negative_dust_after_double_dash(self, runner):
        result = runner.invoke(main, ["qutrit", "--", "-1e-13", "0.3", "0.75", "0.25", str(1 / 3), str(2 / 3)])
        assert result.exit_code == 0
        assert "cross_check_delta = 0\n" in result.output

    def test_cross_check_warns_above_default_tol(self, runner, monkeypatch):
        closed_form = qutrit_mutual_information_closed_form
        monkeypatch.setattr("wqent.entropy.qutrit_mutual_information_closed_form",
                            lambda *args: closed_form(*args) + 5e-10)
        result = runner.invoke(main, ["qutrit", "0.1", "0.1", "0.75", "0.25", str(1 / 3), str(2 / 3)])
        assert result.exit_code == 0
        assert result.stderr.startswith("warning: closed form and matrix path disagree by 5.0")

    @pytest.mark.parametrize("args", [["0.1", "0.1", "1e5", "0", "1e5", "0"], ["0.1", "0.1", "1e8", "1", "1e8", "1"]])
    def test_cross_check_is_relative_to_large_values(self, runner, args):
        # deltas of 1.2e-7 and 0.125 on values of -5.9e8 and -5.9e14: rounding, about 2e-16 relative
        result = runner.invoke(main, ["qutrit", *args])
        assert result.exit_code == 0
        assert float(result.output.split("cross_check_delta = ")[1]) > DEFAULT_TOL
        assert result.stderr == ""

    def test_zero_prints_without_sign(self, runner):
        result = runner.invoke(main, ["qutrit", "0.5", "0.5", "1", "0", "0", "1"])
        assert result.exit_code == 0
        assert "mutual_information = 0\n" in result.output

    @pytest.mark.parametrize("args", [
        ["sweep", "prob", "--phi1", "2e154", "--chi1", "1e154"],
        ["qutrit", "0.1", "0.1", "1e200", "0", "1e200", "0"],
    ])
    def test_finite_weights_that_overflow_exit_2(self, runner, args):
        # a RuntimeWarning is an error under the test suite's filter, so none escapes either
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        first = result.stderr.splitlines()[0]
        assert first == "error: the qutrit mutual information overflows a float at these weights"
        assert result.stdout == ""


class TestSweepCommands:
    def test_prob_grid_rows(self, runner):
        result = runner.invoke(main, ["sweep", "prob", "--grid-n", "7"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "p1,p2,I"
        assert len(data) - 1 == 7 * 6 // 2
        assert any("grid_n=7" in c for c in comments)

    def test_prob_rerun_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            res = runner.invoke(main, ["sweep", "prob", "--grid-n", "13", "--out", str(path)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_weight_regions(self, runner):
        for region, first_phi in (("a", 0.5), ("b", 0.0)):
            result = runner.invoke(
                main, ["sweep", "weight", "--region", region, "--grid-n", "5"]
            )
            assert result.exit_code == 0
            data = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
            assert data[0] == "phi1,chi1,I"
            assert len(data) - 1 == 25
            assert float(data[1].split(",")[0]) == first_phi

    def test_weight_needs_region(self, runner):
        result = runner.invoke(main, ["sweep", "weight"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["weight", "--region", "a", "--p1", "nan"],
        ["weight", "--region", "b", "--p2", "inf"],
        ["prob", "--phi1", "inf"],
        ["prob", "--chi2", "nan"],
    ])
    def test_non_finite_input_exits_2(self, runner, args):
        result = runner.invoke(main, ["sweep", *args, "--grid-n", "5"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert result.stdout == ""

    @pytest.mark.parametrize("phi1", ["nan", "-1", "inf"])
    def test_single_cell_grid_still_checks_weights(self, runner, phi1):
        result = runner.invoke(main, ["sweep", "prob", "--grid-n", "1", "--phi1", phi1])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert result.stdout == ""


class TestChannelCommand:
    def test_worked_example(self, runner, example_files):
        result = runner.invoke(main, ["channel", example_files["state"], example_files["proj"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        diag = [payload["state"]["re"][i][i] for i in range(4)]
        assert abs(diag[0] - 1 / 9) <= 1e-15
        assert diag[1] == 0.0
        assert abs(diag[2] - 8 / 9) <= 1e-15
        assert abs(payload["report"]["gap"]) < 1e-10

    def test_tol_is_kept_through_the_channel(self, runner, tmp_path):
        # the -1e-8 eigenvalue passes at --tol 1e-6, so the channel output must not be re-judged at 1e-10
        state = write_matrix(tmp_path / "s.json", np.diag([0.4 + 1e-8, 0.35, 0.25, -1e-8]))
        ident = write_matrix(tmp_path / "p.json", np.eye(4))
        assert runner.invoke(main, ["channel", state, ident]).exit_code == 2
        result = runner.invoke(main, ["channel", state, ident, "--tol", "1e-6"])
        assert result.exit_code == 0, result.stderr
        assert '"tolerance": 1e-06' in result.output
        assert json.loads(result.output)["report"]["tolerance"] == 1e-6

    def test_weights_are_validated_at_tol(self, runner, example_files):
        # --phi1 is judged at --tol like the state and the projector, not at the default 1e-10
        args = ["channel", example_files["state"], example_files["proj"]]
        result = runner.invoke(main, args + ["--tol", "1e-12", "--phi1", "-1e-11"])
        assert result.exit_code == 2
        assert "weight is not positive semidefinite" in result.stderr
        result = runner.invoke(main, args + ["--tol", "1e-6", "--phi1", "-1e-8"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["report"]["tolerance"] == 1e-6

    def test_vanishing_overlap_exits_4(self, runner, example_files, tmp_path):
        state = write_matrix(tmp_path / "s.json", np.diag([0.0, 1.0, 0.0, 0.0]))
        result = runner.invoke(main, ["channel", state, example_files["proj"]])
        assert result.exit_code == 4
        assert "overlap" in result.stderr

    def test_non_projector_exits_2(self, runner, example_files, tmp_path):
        notp = write_matrix(tmp_path / "p.json", np.diag([0.5, 0.5, 1.0, 0.0]))
        result = runner.invoke(main, ["channel", example_files["state"], notp])
        assert result.exit_code == 2
        assert "idempotent" in result.stderr

    def test_an_output_that_fails_validation_exits_2_naming_the_channel_output(self, runner, tmp_path):
        # overlap 5e-9 in a Haar frame: dividing P rho P by it lifts its rounding over the Hermitian tolerance
        u = haar_unitary(4, 2).T
        v = np.sqrt(1 - 1e-8) * u[0] + np.sqrt(1e-8) * u[1]
        rho = (np.outer(v, v.conj()) + np.outer(u[0], u[0].conj())) / 2
        p = np.outer(u[1], u[1].conj()) + np.outer(u[2], u[2].conj())
        files = [write_matrix(tmp_path / f"{k}.json", m.real, m.imag) for k, m in (("s", rho), ("p", p))]
        result = runner.invoke(main, ["channel", *files])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: channel output at overlap trace 5.000e-09 deviates from Hermitian by 2.457e-09\n"


class TestAuditCommand:
    def test_condition_satisfying_summary(self, runner):
        result = runner.invoke(
            main,
            ["audit", "--n", "300", "--seed", "11", "--regime", "diagonal-condition-satisfying"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["samples"] == 300
        assert payload["violations"] == []
        assert payload["min_gap"] >= -1e-9

    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["audit", "--n", "200", "--seed", "5", "--regime", "diagonal-unconstrained"]
        for path in (a, b):
            res = runner.invoke(main, args + ["--out", str(path)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert len(payload["violations"]) > 0
        first = payload["violations"][0]
        assert first["report"]["subadditivity_holds"] is False
        assert first["state"]["dim"] == 4

    def test_unknown_regime_exits_2(self, runner):
        result = runner.invoke(main, ["audit", "--regime", "bogus"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "1", "2"])
    def test_bad_tol_exits_2(self, runner, tol):
        result = runner.invoke(main, ["audit", "--n", "10", "--tol", tol])
        assert result.exit_code == 2
        assert "positive and finite" in result.stderr

    def test_factor_dim_below_two_exits_2(self, runner):
        result = runner.invoke(main, ["audit", "--n", "10", "--dims", "1x2"])
        assert result.exit_code == 2
        assert "factor dims must be >= 2" in result.stderr

    def test_condition_satisfying_at_2x3_exits_0(self, runner):
        result = runner.invoke(
            main, ["audit", "--n", "10", "--dims", "2x3", "--regime", "diagonal-condition-satisfying"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["violations"] == []


# a 218 TiB draw and a 71.1 PiB grid mask, each more than a 47-bit user address space holds,
# so the allocation fails at once
@pytest.mark.parametrize("args", [
    ["audit", "--n", "10000000000000", "--regime", "diagonal-unconstrained"],
    ["sweep", "prob", "--grid-n", "100000000"],
])
def test_size_too_large_to_allocate_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: Unable to allocate")
    assert result.stdout == ""


@pytest.fixture(scope="module")
def large_entry_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("large")
    big_state = np.diag([0.25] * 4)
    big_state[0, 1] = big_state[1, 0] = 1e308
    return {
        "w200": write_matrix(tmp / "w200.json", np.diag([1e200, 1.0])),
        "w308": write_matrix(tmp / "w308.json", np.diag([1e308, 1.0, 1.0, 1.0])),
        "big_state": write_matrix(tmp / "big_state.json", big_state),
        "big_proj": write_matrix(tmp / "big_proj.json", np.diag([1e308, 0.0, 0.0, 0.0])),
    }


def test_large_finite_weight_gives_a_finite_entropy(runner, example_files, large_entry_files):
    # -1e308 * 0.1 ln 0.1; a + a^dagger of this weight would overflow
    result = runner.invoke(main, ["entropy", example_files["state"], large_entry_files["w308"]])
    assert result.exit_code == 0
    assert result.output == "2.30258509299e+307\n"


@pytest.mark.parametrize("args, message", [
    (["check", "state", "w200", "w200"], "the weight product phi_A (x) phi_B overflows a float at these weights"),
    (["channel", "state", "proj", "--phi1", "1e200", "--chi1", "1e200"],
     "the weight product phi_A (x) phi_B overflows a float at these weights"),
    (["check", "big_state", "wa", "wb"], "state is not positive semidefinite (min eigenvalue -1.000e+308)"),
    (["channel", "state", "big_proj"], "projector is not idempotent (max |P^2 - P| = inf)"),
])
def test_large_finite_entries_exit_2(runner, example_files, large_entry_files, args, message):
    # one error line and nothing else: the test suite turns a RuntimeWarning into an error
    files = {**example_files, **large_entry_files}
    result = runner.invoke(main, [files.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


class TestUnwritableOut:
    """An --out that cannot be opened for writing is a validation failure naming the path."""

    @pytest.fixture
    def commands(self, example_files):
        return {
            "check": ["check", example_files["state"], example_files["wa"], example_files["wb"]],
            "channel": ["channel", example_files["state"], example_files["proj"]],
            "audit": ["audit", "--n", "10"],
            "sweep prob": ["sweep", "prob", "--grid-n", "3"],
            "sweep weight": ["sweep", "weight", "--region", "a", "--grid-n", "3"],
        }

    @pytest.mark.parametrize("command", ["check", "channel", "audit", "sweep prob", "sweep weight"])
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_exits_2_naming_the_path(self, runner, commands, tmp_path, command, target):
        out = str(tmp_path if target == "directory" else tmp_path / "missing" / "out.txt")
        result = runner.invoke(main, commands[command] + ["--out", out])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: {out}: cannot write file")
        assert result.stdout == ""


# json spells these NaN, Infinity, -Infinity and -0.0; repr would write nan and inf
EDGE_POOL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
EDGE_FLOATS = st.one_of(st.sampled_from(EDGE_POOL), st.floats(allow_nan=True, allow_infinity=True))


def complex_matrices(dim):
    def combine(parts):
        out = np.empty((dim, dim), dtype=complex)
        out.real, out.imag = parts
        return out

    return arrays(np.float64, (2, dim, dim), elements=EDGE_FLOATS, fill=st.sampled_from(EDGE_POOL)).map(combine)


def reports(tolerance):
    return st.builds(lambda fields, *verdicts: SubadditivityReport(*fields, *verdicts, tolerance),
                     st.lists(EDGE_FLOATS, min_size=7, max_size=7), st.booleans(), st.booleans())


@st.composite
def payloads(draw):
    """A report for ``check``, a dim-4 state for ``channel`` and an audit summary.

    The summary holds its dims and a table as an audit builds it, or none: zero to nine violators, seven
    field arrays of edge floats and three matrix stacks at those dims, judged at the summary's tolerance.
    """
    tolerance = draw(st.sampled_from([1e-10, 1e-6, 0.5]))
    dim_a, dim_b = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    k, columns = draw(st.integers(0, 9)), None
    if k:
        fields = {name: draw(arrays(np.float64, k, elements=EDGE_FLOATS, fill=st.sampled_from(EDGE_POOL)))
                  for name in _REPORT_NAMES[:7]}
        columns = fields, tuple(np.stack([draw(complex_matrices(d)) for _ in range(k)])
                                for d in (dim_a * dim_b, dim_a, dim_b))
    summary = AuditSummary(draw(st.integers(1, 10**6)), draw(EDGE_FLOATS), draw(st.integers(0, 2**32)),
                           draw(st.sampled_from(AUDIT_REGIMES)), (dim_a, dim_b), tolerance, columns)
    return draw(reports(tolerance)), draw(complex_matrices(4)), summary


class TestJsonMatchesOracle:
    """``check``, ``channel`` and ``audit`` write ``json.dumps(indent=2)`` of the dicts in ``tests/json_oracle.py``."""

    @given(payloads())
    @settings(max_examples=150, deadline=None)
    def test_random_payloads(self, example_files, case):
        """The report and the channel state are patched into the commands, so every float reaches the writer."""
        report, state, summary = case
        with mock.patch("wqent.inequality.check_subadditivity", return_value=report):
            result = CliRunner().invoke(main, ["check", example_files["state"], example_files["wa"],
                                               example_files["wb"]])
        assert result.output == json.dumps(report_to_dict(report), indent=2) + "\n"
        with mock.patch("wqent.channel.channel_then_check", return_value=(SimpleNamespace(matrix=state), report)):
            result = CliRunner().invoke(main, ["channel", example_files["state"], example_files["proj"]])
        assert result.output == json.dumps(channel_payload(state, report), indent=2) + "\n"
        assert audit_to_json(summary) == json.dumps(audit_payload(summary), indent=2)

    def test_audit_json_is_written_at_the_summary_tolerance(self):
        # the head and every record carry the tolerance the verdicts were judged at; neither it nor the
        # dims can be passed
        summary = audit_random(2000, 2, 2, 1, "diagonal-unconstrained", tolerance=1e-9)
        payload = json.loads(audit_to_json(summary))
        assert payload["tolerance"] == 1e-9
        assert len(payload["violations"]) == len(summary.violations) > 0
        assert {v["report"]["tolerance"] for v in payload["violations"]} == {1e-9}
        with pytest.raises(TypeError):
            audit_to_json(summary, 0.5)
        with pytest.raises(TypeError):
            audit_to_json(summary, 2, 2)

    @pytest.mark.parametrize("dims_a, dims_b, wrong", [(2, 3, (3, 2)), (2, 2, (2, 3))])
    def test_audit_json_rejects_dims_its_stacks_do_not_have(self, dims_a, dims_b, wrong):
        # 3x2 on a 2x3 summary has the state's size but not the weights'; 2x3 on a 2x2 summary has neither
        summary = audit_random(2000, dims_a, dims_b, 1, "diagonal-unconstrained")
        assert summary.columns is not None
        with pytest.raises(DimensionError, match=rf"dims {wrong[0]}x{wrong[1]} .*state \(\d+, {dims_a * dims_b}, "):
            audit_to_json(dataclasses.replace(summary, dims=wrong))

    @pytest.mark.parametrize("regime, dims, n, seed", [
        ("diagonal-unconstrained", "2x2", 2000, 3),
        ("diagonal-condition-satisfying", "2x2", 500, 0),
        ("general-unconstrained", "2x3", 2000, 1),
        ("diagonal-unconstrained", "2x3", 2000, 1),
        ("diagonal-condition-satisfying", "3x3", 2000, 1),
    ])
    def test_cli_output_equals_json_dumps(self, runner, regime, dims, n, seed):
        summary = audit_random(n, *map(int, dims.split("x")), seed, regime)
        result = runner.invoke(main, ["audit", "--n", str(n), "--seed", str(seed), "--dims", dims,
                                      "--regime", regime])
        assert result.exit_code == 0
        assert result.output == json.dumps(audit_payload(summary), indent=2) + "\n"


HELP = {
    (): ("entropy", "check", "qutrit", "sweep", "channel", "audit"),
    ("entropy",): ("state_file", "weight_file", "--tol"),
    ("check",): ("state_file", "weight_a_file", "weight_b_file", "--dims", "--tol", "--out"),
    ("qutrit",): ("p1", "p2", "phi1", "phi2", "chi1", "chi2"),
    ("sweep",): ("prob", "weight"),
    ("sweep", "prob"): ("--grid-n", "--phi1", "--phi2", "--chi1", "--chi2", "--out"),
    ("sweep", "weight"): ("--region", "--grid-n", "--p1", "--p2", "--out"),
    ("channel",): ("state_file", "projector_file", "--phi1", "--phi2", "--chi1", "--chi2", "--tol", "--out"),
    ("audit",): ("--n", "--dims", "--seed", "--regime", "--tol", "--out"),
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "wqent")
def test_help_lists_commands(runner, command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    for name in HELP[command]:
        assert name in result.output


# the paper's figure parameters are the options' defaults, and each help text prints them
HELP_DEFAULTS = {
    ("sweep", "prob"): ("0.75", "0.25", "0.3333333333333333", "0.6666666666666666"),
    ("sweep", "weight"): ("0.25", "0.125"),
    ("channel",): ("0.75", "0.25", "0.3333333333333333", "0.6666666666666666"),
}


@pytest.mark.parametrize("command", list(HELP_DEFAULTS), ids=" ".join)
def test_help_prints_the_papers_values(runner, command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0
    # argparse wraps help text to the terminal's width
    text = " ".join(result.output.split())
    for value in HELP_DEFAULTS[command]:
        assert f"default: {value}, the paper's value" in text


# a usage error exits 2 with a usage line; a bad regime or region is the library's own error
USAGE_ERRORS = [
    (["entropy", "state.json"], "usage: wqent entropy"),
    ([], "usage: wqent"),
    (["sweep"], "usage: wqent sweep"),
    (["audit", "--bogus"], "usage: wqent"),
    (["nosuchcommand"], "usage: wqent"),
    (["check", "s.json", "a.json", "b.json", "--tol", "x"], "usage: wqent check"),
    (["entropy", "s.json", "w.json", "--tol", "1e-6e"], "usage: wqent entropy"),
    (["audit", "--n", "x"], "usage: wqent audit"),
    (["audit", "--n", "1.5"], "usage: wqent audit"),
    (["sweep", "prob", "--grid-n", "many"], "usage: wqent sweep prob"),
    (["qutrit", "0.1", "0.1", "0.75", "0.25", "x", "0.5"], "usage: wqent qutrit"),
    (["audit", "--regime", "bogus"], "error: unknown regime 'bogus'"),
    (["sweep", "weight", "--region", "c"], "error: region must be one of ['a', 'b']"),
]


@pytest.mark.parametrize("args, stderr", USAGE_ERRORS, ids=[" ".join(a) or "no command" for a, _ in USAGE_ERRORS])
def test_usage_errors_exit_2_with_empty_stdout(runner, args, stderr):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(stderr)


def test_negative_option_values_need_no_equals_sign(runner, example_files):
    # argparse alone reads "-1e-8" after an option as another option; main joins it to the option
    args = ["channel", example_files["state"], example_files["proj"], "--tol", "1e-6"]
    spaced = runner.invoke(main, args + ["--phi1", "-1e-8"])
    joined = runner.invoke(main, args + ["--phi1=-1e-8"])
    assert spaced.exit_code == 0, spaced.stderr
    assert spaced.output == joined.output


# public name -> the submodule that defines it, as the package exports them
PUBLIC = {
    "errors": ("ChannelUndefinedError", "DimensionError", "InvalidSimplexError", "MatrixFileError",
               "NegativeEigenvalueError", "NotHermitianError", "ValidationError"),
    "linalg": ("SpectralDecomposition", "hermitian_eig", "partial_trace", "xlogx_matrix"),
    "states": ("BipartiteState", "DensityMatrix", "QutritDiagonal", "WeightMatrix", "embed_ququart",
               "embed_qutrit", "haar_unitary", "random_density", "random_weight"),
    "entropy": ("qutrit_mutual_information_closed_form", "weighted_entropy"),
    "inequality": ("AuditSummary", "SubadditivityReport", "ViolationRecord", "WeightCondition",
                   "audit_random", "check_subadditivity", "qutrit_condition_gap", "qutrit_weight_condition"),
    "channel": ("Projector", "apply_projective_channel", "basis_projector", "channel_then_check"),
    "sweeps": ("SweepGrid", "grid_to_csv", "sweep_probabilities", "sweep_weights"),
}
HEAVY = ("wqent.inequality", "wqent.channel", "wqent.sweeps")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict:
    """This checkout's sources, and stdout block-buffered when it is a pipe, as for an installed ``wqent``: no
    ``PYTHONUNBUFFERED``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def fresh_python(*args):
    """A fresh interpreter on this checkout's sources, its stdout and stderr captured."""
    return subprocess.run([sys.executable, *args], env=checkout_env(), capture_output=True, text=True, timeout=120)


def imported(proc) -> set:
    """The modules a ``-X importtime`` run imported, read from its stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


class TestStartup:
    """A CLI call loads only what it runs; the package resolves its public names on first access."""

    def test_importing_the_cli_loads_errors_alone_and_no_numpy(self):
        bare = set(fresh_python("-c", "import sys; print(*sorted(sys.modules))").stdout.split())
        proc = fresh_python("-c", "import sys, wqent.cli; print(*sorted(sys.modules))")
        loaded = set(proc.stdout.split())
        assert {m for m in loaded if m.startswith("wqent")} == {"wqent", "wqent.cli", "wqent.errors"}
        assert "numpy" not in loaded
        assert "click" not in loaded
        # argparse loads when main builds the parser, json in the functions that read or write it
        assert "sys" in bare and not {"argparse", "json"} & (loaded - bare)

    @pytest.mark.parametrize("args, code, absent", [
        (["--help"], 0, "numpy"),
        (["qutrit", "0.1"], 2, "numpy"),
        (["entropy", "missing", "wab"], 5, "numpy"),
        (["entropy", "truncated", "wab"], 5, "numpy"),
        (["channel", "truncated", "proj"], 5, "numpy"),
        (["check", "state", "wa", "wb", "--dims", "2x3"], 3, "wqent.inequality"),
    ], ids=["help", "usage error", "missing file", "truncated file", "channel truncated file", "dims mismatch"])
    def test_a_call_that_stops_early_loads_nothing_it_does_not_reach(self, example_files, tmp_path, args, code,
                                                                       absent):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"dim": 4, "re": [[1, 0')
        files = dict(example_files, missing=str(tmp_path / "missing.json"), truncated=str(truncated))
        proc = fresh_python("-X", "importtime", "-m", "wqent.cli", *[files.get(a, a) for a in args])
        assert proc.returncode == code, proc.stderr
        assert absent not in imported(proc)

    @pytest.mark.parametrize("args, heavy", [
        (["entropy", "state", "wab"], ()),
        (["check", "state", "wa", "wb"], ("wqent.inequality",)),
        (["qutrit", "0.1", "0.1", "0.75", "0.25", "0.5", "0.5"], ("wqent.inequality",)),
        (["audit", "--n", "10"], ("wqent.inequality",)),
        (["sweep", "prob", "--grid-n", "3"], ("wqent.sweeps",)),
        (["channel", "state", "proj"], ("wqent.inequality", "wqent.channel")),
    ], ids=["entropy", "check", "qutrit", "audit", "sweep prob", "channel"])
    def test_a_command_imports_only_what_it_runs(self, example_files, tmp_path, args, heavy):
        files = dict(example_files, wab=write_matrix(tmp_path / "wab.json", np.diag([0.25, 0.5, 0.25 / 3, 0.5 / 3])))
        proc = fresh_python("-X", "importtime", "-m", "wqent.cli", *[files.get(a, a) for a in args])
        assert proc.returncode == 0, proc.stderr
        assert {m for m in HEAVY if m in imported(proc)} == set(heavy)

    def test_public_names_resolve_from_their_submodules(self):
        import wqent

        names = [name for names in PUBLIC.values() for name in names]
        assert len(names) == 38
        assert sorted(wqent.__all__) == sorted(dir(wqent)) == sorted(names)
        for module, names in PUBLIC.items():
            for name in names:
                assert getattr(wqent, name) is getattr(importlib.import_module(f"wqent.{module}"), name)
        with pytest.raises(AttributeError, match="no attribute 'nosuchname'"):
            wqent.nosuchname


def collector_state():
    return gc.isenabled(), gc.get_freeze_count()


# a success and an ``error:`` exit end through os._exit; --help and an argparse usage error leave through
# SystemExit, so the interpreter finalizes and runs its atexit hooks
PROCESS_CASES = [(["qutrit", "0.1", "0.1", "0.75", "0.25", "0.5", "0.5"], 0, "os._exit 0"),
                 (["entropy", "missing", "wab"], 5, "os._exit 5"), (["qutrit", "0.1"], 2, "atexit"),
                 (["--help"], 0, "atexit")]

# prints the collector state and the collections run once numpy loaded, at os._exit or in an atexit hook
EXIT_PROBE = """
import atexit, gc, os, sys
seen = []
gc.callbacks.append(lambda phase, info: phase == "start" and "numpy" in sys.modules and seen.append(1))
state = lambda: f"collector {gc.isenabled()} collections {len(seen)}"
real_exit = os._exit
def probe_exit(code):
    print("os._exit", code, state(), flush=True)
    real_exit(code)
os._exit = probe_exit
atexit.register(lambda: print("atexit", state()))
"""


def console_script_target() -> str:
    """The ``module:function`` that ``[project.scripts]`` installs as ``wqent``."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^\[project\.scripts\]\nwqent = "([\w.]+:\w+)"$', text, re.M).group(1)


class TestProcessPolicy:
    """The entry runs ``main`` with the cyclic collector off and ends the process with ``os._exit``, without
    finalizing the interpreter; ``main`` alone leaves the caller's collector as it found it."""

    @pytest.mark.parametrize("args, code, way", PROCESS_CASES,
                             ids=["success", "error exit", "usage exit", "help exit"])
    def test_main_leaves_the_collector_alone_and_the_entry_switches_it_off(self, runner, example_files, tmp_path,
                                                                          args, code, way):
        files = dict(example_files, missing=str(tmp_path / "missing.json"))
        argv = [files.get(a, a) for a in args]
        before = collector_state()
        assert runner.invoke(main, argv).exit_code == code
        assert collector_state() == before
        # os._exit would end this process, so the entry runs in a fresh one
        proc = fresh_python("-c", EXIT_PROBE + "sys.argv[0] = 'wqent'\nfrom wqent import cli\ncli.run()", *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{way} collector False collections 0"

    @pytest.mark.parametrize("start", [
        "import runpy; runpy.run_module('wqent.cli', run_name='__main__')",
        "import importlib; module, name = {target!r}.split(':')\n"
        "sys.exit(getattr(importlib.import_module(module), name)())",
    ], ids=["python -m wqent.cli", "console script"])
    def test_a_wqent_process_runs_without_collections_and_exits_without_finalizing(self, start):
        argv = 'sys.argv = ["wqent", "qutrit", "0.1", "0.1", "0.75", "0.25", "0.5", "0.5"]\n'
        proc = fresh_python("-c", EXIT_PROBE + argv + start.format(target=console_script_target()))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mutual_information = ")
        assert proc.stdout.splitlines()[-1] == "os._exit 0 collector False collections 0"
        assert "atexit" not in proc.stdout


def wqent_process(*args) -> list[str]:
    return [sys.executable, "-m", "wqent.cli", *args]


class TestPipes:
    """A ``wqent`` process flushes its whole output into a pipe before it exits; a reader that closes the pipe early
    gets exit 1 and nothing on stderr."""

    @pytest.mark.parametrize("args", [["sweep", "weight", "--region", "a"], ["check", "state", "wa", "wb"]],
                             ids=["sweep weight", "check"])
    def test_piped_stdout_equals_the_out_file_and_mains_output(self, runner, example_files, tmp_path, args):
        argv = [example_files.get(a, a) for a in args]
        piped = subprocess.run(wqent_process(*argv), env=checkout_env(), capture_output=True, timeout=120)
        assert piped.returncode == 0 and piped.stderr == b""
        out = tmp_path / "out"
        written = subprocess.run(wqent_process(*argv, "--out", str(out)), env=checkout_env(),
                                 capture_output=True, timeout=120)
        assert written.returncode == 0 and written.stdout == written.stderr == b""
        assert piped.stdout == out.read_bytes()
        assert piped.stdout.decode("utf-8") == runner.invoke(main, argv).stdout

    def test_a_reader_that_closes_after_the_first_line_gets_exit_1(self):
        # about 0.5 MB of CSV: far more than a pipe holds, so the write is still going when the reader closes
        with subprocess.Popen(wqent_process("sweep", "weight", "--region", "a"), env=checkout_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"# sweep weight region=a ")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            assert proc.stderr.read() == b""

    def test_a_pipe_closed_before_the_final_flush_exits_1(self, example_files):
        # the report stays in stdout's buffer until the entry's flush after main returns
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(wqent_process("check", example_files["state"], example_files["wa"],
                                                example_files["wb"]),
                                  env=checkout_env(), stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""
