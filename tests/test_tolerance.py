"""The one tolerance rule: every decision against a caller's ``tol`` goes through ``linalg._within_noise``.

Each decision is pinned at its threshold: an input exactly at it passes, and an input one ulp
beyond flips the decision. A guard parses the package and finds any other comparison with a
tolerance.
"""

import ast
import pathlib

import numpy as np
import pytest

import wqent
import wqent.inequality
from wqent.channel import Projector
from wqent.errors import ValidationError
from wqent.inequality import audit_random, check_subadditivity
from wqent.linalg import DEFAULT_TOL
from wqent.states import BipartiteState, DensityMatrix, WeightMatrix

from test_inequality import ExponentialRows, diag_weight

# a binary fraction, so thresholds built from it are exact
TOL = 2.0**-20


class TestStateTrace:
    def test_trace_at_the_threshold_passes_and_one_ulp_beyond_raises(self):
        # diag(c, c) has trace 1 - TOL exactly; c one ulp lower moves the trace one ulp, 2**-53, further
        c = 0.5 - TOL / 2
        beyond = np.nextafter(c, 0.0)
        assert 1.0 - 2 * c == TOL and 1.0 - 2 * beyond == TOL + 2.0**-53
        DensityMatrix(np.diag([c, c]), tol=TOL)
        with pytest.raises(ValidationError, match="state trace"):
            DensityMatrix(np.diag([beyond, beyond]), tol=TOL)


class TestProjectorIdempotency:
    def test_residual_at_the_threshold_passes_and_one_ulp_beyond_raises(self):
        # x = 1 + 2**-20 squares exactly, so max |P^2 - P| = x^2 - x = 2**-20 + 2**-40 exactly
        x = 1.0 + 2.0**-20
        tol = 2.0**-20 + 2.0**-40
        assert x * x - x == tol
        assert Projector(np.diag([x, 0.0]), tol=tol).rank == 1
        beyond = np.nextafter(x, 2.0)
        assert beyond * beyond - beyond > tol
        with pytest.raises(ValidationError, match="idempotent"):
            Projector(np.diag([beyond, 0.0]), tol=tol)


class TestDegenerate:
    def test_smallest_eigenvalue_at_the_threshold_is_degenerate_and_one_ulp_above_is_not(self):
        tol = 1e-10
        assert np.linalg.eigvalsh(np.diag([tol, 1.0]))[0] == tol
        assert WeightMatrix(np.diag([tol, 1.0]), tol=tol).degenerate
        assert not WeightMatrix(np.diag([np.nextafter(tol, 1.0), 1.0]), tol=tol).degenerate


class TestVerdicts:
    def report(self, tol):
        # a diagonal state and weights where both gaps are negative, about -1.4e-3
        state = BipartiteState(DensityMatrix(np.diag([0.9, 0.02, 0.08, 0.0]), tol=tol), 2, 2)
        return check_subadditivity(diag_weight(1.4, 0.1), diag_weight(1.0, 0.3), state)

    @pytest.mark.parametrize("gap, verdict", [("gap", "subadditivity_holds"),
                                              ("condition_gap", "condition_holds")])
    def test_gap_at_minus_tol_holds_and_one_ulp_beyond_fails(self, gap, verdict):
        value = getattr(self.report(DEFAULT_TOL), gap)
        assert -1.0 < value < 0.0
        # the fields do not depend on tol: the threshold -tol sits exactly at the gap, then one ulp above it
        at = self.report(-value)
        assert getattr(at, gap) == value and getattr(at, verdict) is True
        beyond = self.report(np.nextafter(-value, 0.0))
        assert getattr(beyond, gap) == value and getattr(beyond, verdict) is False


class TestLeak:
    def leaks(self, monkeypatch, state, weight):
        """The leaks the subsystem kernel returns to one check of ``state``, A's then B's, and its outcome."""
        leaks, kernel = [], wqent.inequality._subsystem_entropy

        def recorded(x, rho):
            entropy, leak = kernel(x, rho)
            leaks.append(leak)
            return entropy, leak

        with monkeypatch.context() as m:
            m.setattr(wqent.inequality, "_subsystem_entropy", recorded)
            try:
                outcome = check_subadditivity(WeightMatrix(weight), WeightMatrix(weight), state)
            except ValidationError as exc:
                outcome = str(exc)
        return leaks, outcome

    def test_leak_at_the_threshold_passes_and_one_ulp_beyond_raises(self, monkeypatch):
        # rho_A = diag(1, 0), and phi rho puts about 4.8e-4 of weighted mass on its kernel; the
        # -1.8e-5 eigenvalue passes at any tol above 2e-5
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 3] = m[3, 0] = 3e-3
        weight = np.array([[1.0, 0.4], [0.4, 1.0]])
        (leak, _), _ = self.leaks(monkeypatch, BipartiteState(DensityMatrix(m, tol=2e-5), 2, 2), weight)
        assert 4e-4 < leak < 5e-4
        leaks, outcome = self.leaks(monkeypatch, BipartiteState(DensityMatrix(m, tol=leak), 2, 2), weight)
        assert leaks == [leak, 0.0] and outcome.tolerance == leak
        leaks, outcome = self.leaks(monkeypatch, BipartiteState(DensityMatrix(m, tol=np.nextafter(leak, 0.0)), 2, 2),
                                    weight)
        assert leaks == [leak, 0.0] and outcome.startswith(f"reduced weighted state has {leak:.3e} of mass outside")

    def test_a_nan_leak_is_left_to_the_overflow_check(self, monkeypatch):
        # phi rho overflows, so both reduced weighted states hold NaN, and so do the leaks
        state = BipartiteState(DensityMatrix(np.full((4, 4), 0.25)), 2, 2)
        leaks, outcome = self.leaks(monkeypatch, state, np.full((2, 2), 1e154))
        assert np.isnan(leaks).all() and len(leaks) == 2
        assert outcome == "the subadditivity report overflows a float at these weights"


class TestAuditScan:
    # fixed probabilities, alternating two rows; the weights come from the seeded generator
    ROWS = np.tile([[0.9, 0.02, 0.08], [0.6, 0.2, 0.2]], (32, 1))

    def audit(self, monkeypatch, tolerance):
        draw = np.random.default_rng
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", lambda seed: ExponentialRows(self.ROWS, draw(seed)))
            return audit_random(len(self.ROWS), 2, 2, 0, "diagonal-unconstrained", tolerance=tolerance)

    def test_violators_at_the_threshold_are_kept_out_and_one_ulp_beyond_are_recorded(self, monkeypatch):
        gaps = np.sort(self.audit(monkeypatch, 2.0**-1000).columns[0]["gap"])
        assert len(gaps) >= 3 and -1.0 < gaps[0] < gaps[1] < 0.0
        # the smallest gap at -tolerance: the one chunk has no violator
        at = self.audit(monkeypatch, -gaps[0])
        assert at.min_gap == gaps[0] and at.violations == ()
        beyond = self.audit(monkeypatch, np.nextafter(-gaps[0], 0.0))
        assert [v.report.gap for v in beyond.violations] == [gaps[0]]
        # a larger gap at -tolerance, in a chunk with deeper violators, which are recorded and it is not
        at = self.audit(monkeypatch, -gaps[1])
        assert sorted(v.report.gap for v in at.violations) == [gaps[0]]
        beyond = self.audit(monkeypatch, np.nextafter(-gaps[1], 0.0))
        assert sorted(v.report.gap for v in beyond.violations) == list(gaps[:2])
        # a recorded violator is an item whose report says the inequality fails
        assert not any(v.report.subadditivity_holds for v in beyond.violations)


# the judging rule itself, and the range check every caller's tolerance passes
EXEMPT = {("linalg.py", "_within_noise"), ("linalg.py", "_positive_tol")}
TOLERANCES = {"tol", "tolerance", "leak_tol"}


def tolerance_comparisons(name: str, source: str) -> list[str]:
    """``name:line`` of each comparison in ``source`` with an operand ``tol``, ``tolerance`` or ``leak_tol``,
    as a name or an attribute, or its negation, outside the exempt functions."""
    sites = []

    def operand_is_a_tolerance(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Name) and node.id in TOLERANCES
                or isinstance(node, ast.Attribute) and node.attr in TOLERANCES)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Compare) and (name, function) not in EXEMPT
                and any(map(operand_is_a_tolerance, [node.left, *node.comparators]))):
            sites.append(f"{name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, name), None)
    return sites


def test_no_module_compares_against_a_tolerance_outside_the_noise_rule():
    modules = sorted(pathlib.Path(wqent.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    sites = [site for path in modules for site in tolerance_comparisons(path.name, path.read_text())]
    assert sites == [], "judge these through linalg._within_noise: " + ", ".join(sites)


def test_the_guard_finds_each_form_and_exempts_the_rule():
    source = ("def f(x, tol, o):\n    return x > tol, -tol <= x, x < -o.tolerance, 0.0 < leak_tol < 1.0\n"
              "def _within_noise(deviation, scale, tol):\n    return deviation <= tol\n")
    assert tolerance_comparisons("other.py", source) == ["other.py:2"] * 4 + ["other.py:4"]
    assert tolerance_comparisons("linalg.py", source) == ["linalg.py:2"] * 4
