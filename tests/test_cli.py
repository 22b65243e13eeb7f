import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from wqent.cli import main
from wqent.entropy import qutrit_mutual_information_closed_form


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


@pytest.fixture
def example_files(tmp_path):
    return {
        "state": write_matrix(tmp_path / "state.json", np.diag([0.1, 0.1, 0.8, 0.0])),
        "wa": write_matrix(tmp_path / "wa.json", np.diag([0.75, 0.25])),
        "wb": write_matrix(tmp_path / "wb.json", np.diag([1 / 3, 2 / 3])),
        "proj": write_matrix(tmp_path / "proj.json", np.diag([1.0, 0.0, 1.0, 0.0])),
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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
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
        monkeypatch.setattr("wqent.cli.qutrit_mutual_information_closed_form",
                            lambda *args: closed_form(*args) + 5e-10)
        result = runner.invoke(main, ["qutrit", "0.1", "0.1", "0.75", "0.25", str(1 / 3), str(2 / 3)])
        assert result.exit_code == 0
        assert result.stderr.startswith("warning: closed form and matrix path disagree by 5.0")

    def test_zero_prints_without_sign(self, runner):
        result = runner.invoke(main, ["qutrit", "0.5", "0.5", "1", "0", "0", "1"])
        assert result.exit_code == 0
        assert "mutual_information = 0\n" in result.output


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_exits_2(self, runner, tol):
        result = runner.invoke(main, ["audit", "--n", "10", "--tol", tol])
        assert result.exit_code == 2
        assert "positive and finite" in result.stderr

    def test_factor_dim_below_two_exits_2(self, runner):
        result = runner.invoke(main, ["audit", "--n", "10", "--dims", "1x2"])
        assert result.exit_code == 2
        assert "factor dims must be >= 2" in result.stderr

    def test_diagonal_regime_wrong_dims_exits_3(self, runner):
        result = runner.invoke(
            main, ["audit", "--n", "10", "--dims", "2x3", "--regime", "diagonal-unconstrained"]
        )
        assert result.exit_code == 3


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("entropy", "check", "qutrit", "sweep", "channel", "audit"):
        assert name in result.output
