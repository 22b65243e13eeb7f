import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from support_oracle import diagonal_fields_separate_terms
import wqent.entropy
import wqent.inequality
import wqent.linalg
import wqent.states
from wqent.errors import DimensionError, InvalidSimplexError, ValidationError
from wqent.states import (
    DEFAULT_SCALE_RANGE,
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_ququart,
    embed_qutrit,
    random_density,
    random_weight,
    _density_stack,
    _weight_stack,
)
from wqent.cli import main as cli_main, matrix_to_dict
from wqent.channel import Projector
from wqent.entropy import qutrit_mutual_information_closed_form, weighted_entropy
from wqent.linalg import DEFAULT_TOL, _eigh, _hermitian_part, hermitian_eig, partial_trace
from wqent.inequality import (
    AUDIT_REGIMES,
    audit_random,
    check_subadditivity,
    qutrit_condition_gap,
    qutrit_weight_condition,
    SubadditivityReport,
    _diagonal_report_fields,
    _report_fields,
    _sample_diagonal,
)

EXAMPLE_WEIGHTS = (0.75, 0.25, 1 / 3, 2 / 3)
REPORT_FIELDS = ("s_ab", "s_a", "s_b", "gap", "condition_lhs", "condition_rhs", "condition_gap")


def diag_weight(x1, x2):
    return WeightMatrix(np.diag([x1, x2]).astype(complex))


def worked_setup():
    state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
    return state, diag_weight(0.75, 0.25), diag_weight(1 / 3, 2 / 3)


def ququart_at(probs, tol):
    """``embed_ququart(*probs)``, validated at ``tol`` instead of the default."""
    return BipartiteState(DensityMatrix(np.diag(np.asarray(probs, dtype=complex)), tol=tol), 2, 2)


class TestTraceCondition:
    def test_worked_example(self):
        state, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, state)
        assert abs(rep.condition_lhs - 0.14166666666666666) < 1e-15
        assert abs(rep.condition_rhs - 0.35 * (0.9 / 3 + 2 * 0.1 / 3)) < 1e-15
        assert abs(rep.condition_rhs - 0.12833333333333333) < 1e-15
        assert rep.condition_holds

    def test_product_state_is_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ra = random_density(2, rng)
            rb = random_density(2, rng)
            state = BipartiteState(DensityMatrix(np.kron(ra.matrix, rb.matrix)), 2, 2)
            rep = check_subadditivity(random_weight(2, rng), random_weight(2, rng), state)
            assert abs(rep.condition_lhs - rep.condition_rhs) < 1e-12
            assert rep.condition_holds

    def test_identity_weights_are_equality(self):
        rng = np.random.default_rng(4)
        state = BipartiteState(random_density(4, rng), 2, 2)
        ident = WeightMatrix(np.eye(2))
        rep = check_subadditivity(ident, ident, state)
        assert abs(rep.condition_lhs - 1.0) < 1e-12
        assert abs(rep.condition_rhs - 1.0) < 1e-12

    def test_dim_mismatch(self):
        state, wa, _ = worked_setup()
        with pytest.raises(DimensionError):
            check_subadditivity(wa, WeightMatrix(np.eye(3)), state)


class TestQutritCondition:
    def test_worked_example_value_is_exact(self):
        cond = qutrit_weight_condition(0.75, 0.25, 1 / 3, 2 / 3)
        assert cond.value == 1 / 6
        assert cond.holds

    def test_sign_flip(self):
        cond = qutrit_weight_condition(0.25, 0.75, 1 / 3, 2 / 3)
        assert cond.value == -1 / 6
        assert not cond.holds

    def test_boundary_counts_as_holding(self):
        assert qutrit_weight_condition(0.5, 0.5, 0.1, 0.9).holds

    def test_gap_formula_matches_trace_condition(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p1, p2, p3 = rng.dirichlet((1.0, 1.0, 1.0))
            f1, f2, c1, c2 = rng.uniform(0.05, 2.0, size=4)
            state = embed_ququart(p1, p2, p3, 0.0)
            rep = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state)
            ident = qutrit_condition_gap(p1, p2, f1, f2, c1, c2)
            assert abs(rep.condition_gap - ident) < 1e-12

    def test_gap_sign_follows_weight_condition(self):
        # for interior states the trace condition holds iff the sign test does
        rng = np.random.default_rng(11)
        for _ in range(200):
            p1, p2, _ = rng.dirichlet((1.0, 1.0, 1.0))
            f1, f2, c1, c2 = rng.uniform(0.05, 2.0, size=4)
            gap = qutrit_condition_gap(p1, p2, f1, f2, c1, c2)
            value = qutrit_weight_condition(f1, f2, c1, c2).value
            if abs(value) > 1e-9:
                assert (gap > 0) == (value > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("slot", range(4))
    def test_weights_must_be_nonnegative_and_finite(self, bad, slot):
        # the closed form and both qutrit helpers share one weight check
        weights = list(EXAMPLE_WEIGHTS)
        weights[slot] = bad
        for call in (lambda: qutrit_weight_condition(*weights),
                     lambda: qutrit_condition_gap(0.1, 0.1, *weights),
                     lambda: qutrit_mutual_information_closed_form(0.1, 0.1, *weights)):
            with pytest.raises(ValidationError, match="weights must be nonnegative and finite"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gap_rejects_non_finite_probability(self, bad):
        for p1, p2 in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(InvalidSimplexError):
                qutrit_condition_gap(p1, p2, *EXAMPLE_WEIGHTS)

    def test_worked_example_gap(self):
        gap = qutrit_condition_gap(0.1, 0.1, 0.75, 0.25, 1 / 3, 2 / 3)
        assert abs(gap - 0.1 * 0.8 * 0.5 * (1 / 3)) < 1e-15


class TestOneSimplexRule:
    """Every qutrit entry point judges ``(p1, p2, 1 - p1 - p2)`` by the same rule."""

    @pytest.mark.parametrize("p1, p2, accepted", [
        (0.5, 0.5000000000001, True),
        (-1e-13, 0.3, True),
        (0.3, -1e-13, True),
        (0.7, 0.3, True),
        (0.5, 0.500000000002, False),
        (-2e-12, 0.5, False),
        (math.nan, 0.5, False),
        (0.5, math.nan, False),
    ])
    def test_entry_points_agree_at_the_edge(self, p1, p2, accepted):
        calls = (lambda: qutrit_mutual_information_closed_form(p1, p2, *EXAMPLE_WEIGHTS),
                 lambda: qutrit_condition_gap(p1, p2, *EXAMPLE_WEIGHTS),
                 lambda: embed_qutrit(QutritDiagonal(p1, p2, 1.0 - p1 - p2)))
        for call in calls:
            if accepted:
                call()
            else:
                with pytest.raises(InvalidSimplexError):
                    call()

    def test_negative_dust_is_evaluated_as_given(self):
        assert embed_qutrit(QutritDiagonal(0.3, 0.7, -1e-13)).rho.spectrum.eigenvalues[0] == -1e-13
        # the closed form's own triple: p3 = 1 - p1 - p2 is about -1e-13 here
        p1, p2 = 0.3, 0.7000000000001
        state = embed_qutrit(QutritDiagonal(p1, p2, 1.0 - p1 - p2))
        gap = check_subadditivity(diag_weight(0.75, 0.25), diag_weight(1 / 3, 2 / 3), state).gap
        assert abs(gap - qutrit_mutual_information_closed_form(p1, p2, *EXAMPLE_WEIGHTS)) <= 1e-15


class TestCheckSubadditivity:
    def test_worked_example_report(self):
        state, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, state)
        assert abs(rep.s_ab - 0.18757011872883408) < 1e-13
        assert abs(rep.gap - 0.07280126337634046) < 1e-12
        assert rep.gap == rep.s_a + rep.s_b - rep.s_ab
        assert rep.condition_gap == rep.condition_lhs - rep.condition_rhs
        assert rep.condition_holds
        assert rep.subadditivity_holds
        assert rep.tolerance == 1e-10

    def test_product_states_saturate(self):
        rng = np.random.default_rng(20)
        for da, db in [(2, 2), (2, 3), (3, 3)]:
            for _ in range(10):
                ra = random_density(da, rng)
                rb = random_density(db, rng)
                state = BipartiteState(DensityMatrix(np.kron(ra.matrix, rb.matrix)), da, db)
                rep = check_subadditivity(random_weight(da, rng), random_weight(db, rng), state)
                assert abs(rep.gap) < 1e-9
                assert rep.subadditivity_holds
                assert rep.condition_holds

    def test_flags_use_report_tolerance(self):
        # a genuine violation flips the flag at tight tolerance; the verdicts read the state's tol
        probs = (0.03, 0.6, 0.37, 0.0)
        wa = diag_weight(0.1, 1.9)  # phi1 < phi2
        wb = diag_weight(0.1, 1.9)  # chi2 > chi1 -> sign test fails
        rep = check_subadditivity(wa, wb, ququart_at(probs, 1e-10))
        assert rep.condition_gap < 0
        assert not rep.condition_holds
        loose = check_subadditivity(wa, wb, ququart_at(probs, abs(rep.condition_gap) * 2))
        assert loose.condition_holds

    def test_engine_fields_follow_the_report_field_order(self):
        # reports are built positionally from the engine's fields, so the orders must agree
        state, wa, wb = worked_setup()
        rho = state.rho
        fields = _report_fields(rho.matrix, rho.spectrum, wa.matrix, wb.matrix, 2, 2, rho.tol)
        names = [f.name for f in dataclasses.fields(SubadditivityReport)]
        assert tuple(fields) == REPORT_FIELDS == tuple(names[:7])
        assert tuple(_diagonal_report_fields(np.array([[0.1, 0.1, 0.8]]), np.ones((1, 4)))) == REPORT_FIELDS

    def test_report_holds_python_scalars(self):
        state, wa, wb = worked_setup()
        assert_plain_report(check_subadditivity(wa, wb, state), DEFAULT_TOL)
        tolerance = 2.5e-7
        assert_plain_report(check_subadditivity(wa, wb, ququart_at((0.1, 0.1, 0.8, 0.0), tolerance)), tolerance)

    def test_report_tolerance_is_the_state_tol(self):
        _, wa, wb = worked_setup()
        state = ququart_at((0.1, 0.1, 0.8, 0.0), 1e-6)
        rep = check_subadditivity(wa, wb, state)
        assert rep.tolerance == state.rho.tol == 1e-6

    def test_channel_output_state(self):
        state = embed_ququart(1 / 9, 0.0, 8 / 9, 0.0)
        _, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, state)
        assert abs(rep.gap) < 1e-10
        assert rep.subadditivity_holds

    def test_state_validated_at_loose_tol_is_evaluated(self):
        # a 1e-8 Hermitian deviation accepted at tol=1e-6 must not be
        # re-judged against a tighter tolerance during evaluation
        m = np.diag([0.1, 0.1, 0.8, 0.0]).astype(complex)
        m[0, 1] = 1e-8
        state = BipartiteState(DensityMatrix(m, tol=1e-6), 2, 2)
        _, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, state)
        assert abs(rep.gap - 0.07280126337634046) < 1e-7
        assert rep.subadditivity_holds

    def test_one_check_diagonalizes_each_object_once(self, monkeypatch):
        rng = np.random.default_rng(9)
        rho = random_density(6, rng).matrix
        wa = random_weight(2, rng).matrix
        wb = random_weight(3, rng).matrix
        shapes = []
        traces = []

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return _eigh(m, *args, **kwargs)

        def counting_trace(m, *args, **kwargs):
            traces.append(args)
            return partial_trace(m, *args, **kwargs)

        # hermitian_eig reaches the solver through wqent.linalg._eigh, so it is counted too
        for module in (wqent.linalg, wqent.states, wqent.entropy, wqent.inequality):
            monkeypatch.setattr(module, "_eigh", counting)
        monkeypatch.setattr(wqent.inequality, "partial_trace", counting_trace)
        state = BipartiteState(DensityMatrix(rho), 2, 3)
        check_subadditivity(WeightMatrix(wa), WeightMatrix(wb), state)
        # rho_AB, phi_A, phi_B at validation; rho_A, rho_B in evaluation
        assert shapes == [(6, 6), (2, 2), (3, 3), (2, 2), (3, 3)]
        # rho_A, rho_B, tr_B(phi rho) and tr_A(phi rho), each taken once
        assert len(traces) == 4

    def test_inputs_are_checked_once_at_construction(self, monkeypatch):
        labels = []

        def counting(a, tol, label="matrix"):
            labels.append(label)
            return _hermitian_part(a, tol, label)

        _, wa, wb = worked_setup()
        wab = WeightMatrix(np.kron(wa.matrix, wb.matrix))
        for module in (wqent.linalg, wqent.states):
            monkeypatch.setattr(module, "_hermitian_part", counting)
        state, wa, wb = worked_setup()
        Projector(np.diag([1.0, 0.0, 1.0, 0.0]))
        assert labels == ["state", "weight", "weight", "projector"]
        check_subadditivity(wa, wb, state)
        weighted_entropy(wab, state.rho)
        audit_random(20, 2, 3, 0, "general-unconstrained")
        assert len(labels) == 4

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_partial_traces_are_exactly_hermitian(self, seed, da, db):
        # evaluation diagonalizes reduced states and audit draws unchecked, which is
        # sound only while they are exactly Hermitian and _eigh matches the checked path
        rng = np.random.default_rng(seed)
        skewed = random_density(da * db, rng).matrix + 1e-9 * rng.standard_normal((da * db,) * 2)
        validated = np.stack([random_density(da * db, rng).matrix, frame_state(rng, da, db, True).matrix,
                              DensityMatrix(skewed, tol=1e-6).matrix])
        for rho in (validated, _density_stack(rng, 5, da * db)):
            for m in (rho, partial_trace(rho, da, db, "A"), partial_trace(rho, da, db, "B")):
                assert np.array_equal(m, m.conj().swapaxes(-1, -2))
                got, want = _eigh(m), hermitian_eig(m)
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


def frame_state(rng, da, db, deficient):
    """A state diagonal in a random local frame; ``deficient`` empties the last row, so rho_A is singular."""
    def haar(d):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    p = rng.dirichlet(np.ones(da * db)).reshape(da, db)
    if deficient:
        p[-1, :] = 0.0
        p /= p.sum()
    u = np.kron(haar(da), haar(db))
    return DensityMatrix((u * p.ravel()) @ u.conj().T)


def leaky_state():
    # rho_A = diag(1, 0), yet phi rho puts 0.16 * 3e-3 = 4.8e-4 of weighted mass
    # on the kernel of rho_A; the -1.8e-5 eigenvalue passes at tol=2e-5
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 3] = m[3, 0] = 3e-3
    return BipartiteState(DensityMatrix(m, tol=2e-5), 2, 2)


LEAK_WEIGHT = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)


class TestReportEngine:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_scalar_checks(self, seed, da, db):
        rng = np.random.default_rng(seed)
        states = [random_density(da * db, rng), frame_state(rng, da, db, True), frame_state(rng, da, db, False),
                  DensityMatrix(np.kron(random_density(da, rng).matrix, random_density(db, rng).matrix))]
        weights = [(random_weight(da, rng), random_weight(db, rng)) for _ in states]
        rho = np.stack([s.matrix for s in states])
        fields = _report_fields(rho, hermitian_eig(rho), np.stack([w.matrix for w, _ in weights]),
                                np.stack([w.matrix for _, w in weights]), da, db, 1e-10)
        for i, (s, (wa, wb)) in enumerate(zip(states, weights)):
            rep = check_subadditivity(wa, wb, BipartiteState(s, da, db))
            for k in REPORT_FIELDS:
                assert abs(fields[k][i] - getattr(rep, k)) <= 1e-12, k

    def test_off_support_leak_raises(self):
        state = leaky_state()
        weight = WeightMatrix(LEAK_WEIGHT)
        with pytest.raises(ValidationError, match="outside the support"):
            check_subadditivity(weight, weight, state)
        # the same item inside a stack still fails the whole call
        good = embed_ququart(0.1, 0.1, 0.8, 0.0).rho.matrix
        rho = np.stack([good, state.rho.matrix, good])
        phi = np.stack([LEAK_WEIGHT] * 3)
        with pytest.raises(ValidationError, match="outside the support"):
            _report_fields(rho, hermitian_eig(rho), phi, phi, 2, 2, 2e-5)

    def test_leak_is_judged_at_the_state_tolerance(self):
        # 1e-8 and -1e-8 leave rho_A = diag(1, 0) with 8.3e-10 of weighted mass
        # off its support: noise at tol=1e-6, where the state was validated
        rho = DensityMatrix(np.diag([0.5, 0.5, 1e-8, -1e-8]), tol=1e-6)
        _, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, BipartiteState(rho, 2, 2))
        assert rep.subadditivity_holds


class TestDiagonalEngine:
    def test_matches_matrix_path_field_by_field(self):
        rng = np.random.default_rng(77)
        probs = rng.dirichlet((1.0, 1.0, 1.0), size=200)
        weights = rng.uniform(0.05, 2.0, size=(200, 4))
        fields = _diagonal_report_fields(probs, weights)
        for i in range(200):
            p1, p2, p3 = probs[i]
            f1, f2, c1, c2 = weights[i]
            state = embed_ququart(p1, p2, p3, 0.0)
            rep = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state)
            assert abs(fields["s_ab"][i] - rep.s_ab) < 1e-12
            assert abs(fields["s_a"][i] - rep.s_a) < 1e-12
            assert abs(fields["s_b"][i] - rep.s_b) < 1e-12
            assert abs(fields["gap"][i] - rep.gap) < 1e-12
            assert abs(fields["condition_lhs"][i] - rep.condition_lhs) < 1e-12
            assert abs(fields["condition_rhs"][i] - rep.condition_rhs) < 1e-12
            assert abs(fields["condition_gap"][i] - rep.condition_gap) < 1e-12

    @pytest.mark.parametrize("edge", [1e-12, np.nextafter(1e-12, np.inf), np.nextafter(1e-12, -np.inf)])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_support_edge_decided_alike_on_every_path(self, edge, position):
        # x ln x at 1e-12 is about -2.8e-11, so a split support decision shows at 1e-12
        probs = [0.6, 0.6, 0.6]
        probs[position] = edge
        probs[(position + 1) % 3] = 0.4 - edge
        f1, f2, c1, c2 = 0.75, 0.25, 1 / 3, 2 / 3
        fields = _diagonal_report_fields(np.array([probs]), np.array([[f1, f2, c1, c2]]))
        rep = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), embed_ququart(*probs, 0.0))
        for k in REPORT_FIELDS:
            assert abs(fields[k][0] - getattr(rep, k)) < 1e-12, k
        if position < 2:
            # the closed form takes p3 as 1 - p1 - p2, which cannot land one ulp off 1e-12
            closed = qutrit_mutual_information_closed_form(probs[0], probs[1], f1, f2, c1, c2)
            assert abs(closed - rep.gap) < 1e-12
            assert abs(closed - fields["gap"][0]) < 1e-12

    def test_matches_separate_terms_bit_for_bit(self):
        probs, weights = _sample_diagonal(np.random.default_rng(5), 10_000, False)
        edge = [0.0, 1e-12, np.nextafter(1e-12, np.inf), np.nextafter(1e-12, -np.inf), 5e-324]
        rows = [[x, 0.5, 0.5 - x] for x in edge] + [[0.5 - x, x, 0.5] for x in edge] + [[1.0, 0.0, 0.0]]
        probs = np.concatenate([probs, rows])
        weights = np.concatenate([weights, np.tile([0.75, 0.25, 1 / 3, 2 / 3], (len(rows), 1))])
        fields = _diagonal_report_fields(probs, weights)
        reference = diagonal_fields_separate_terms(probs, weights)
        assert tuple(fields) == tuple(reference)
        for k, v in fields.items():
            assert v.tobytes() == reference[k].tobytes(), k

    def test_handles_zero_probabilities(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        weights = np.tile([0.75, 0.25, 1 / 3, 2 / 3], (3, 1))
        fields = _diagonal_report_fields(probs, weights)
        assert np.all(np.isfinite(fields["gap"]))
        # a pure state has zero entropy everywhere
        assert abs(fields["s_ab"][0]) < 1e-14
        assert abs(fields["gap"][0]) < 1e-14


class TestCommutingFamily:
    """The weighted Gibbs inequality: for diagonal states and diagonal product weights,
    ``gap = sum w p ln(p / q) >= sum w (p - q) = condition_gap`` with ``q = p_A p_B``,
    so the trace condition implies subadditivity there, with room to spare."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_gap_bounds_condition_gap(self, seed, da, db, sparse):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(da * db))
        if sparse:
            # exact zeros, down to whole empty rows and columns of the joint distribution
            p[rng.random(da * db) < 0.4] = 0.0
            p[rng.integers(da * db)] += 1.0
            p /= p.sum()
        state = BipartiteState(DensityMatrix(np.diag(p)), da, db)
        wa = WeightMatrix(np.diag(rng.uniform(*DEFAULT_SCALE_RANGE, size=da)))
        wb = WeightMatrix(np.diag(rng.uniform(*DEFAULT_SCALE_RANGE, size=db)))
        rep = check_subadditivity(wa, wb, state)
        assert rep.gap - rep.condition_gap >= -1e-12
        assert rep.subadditivity_holds or not rep.condition_holds

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_diagonal_regimes_bound_condition_gap(self, seed, condition_satisfying):
        probs, weights = _sample_diagonal(np.random.default_rng(seed), 2000, condition_satisfying)
        fields = _diagonal_report_fields(probs, weights)
        assert (fields["gap"] - fields["condition_gap"]).min() >= -1e-12


COUNTEREXAMPLE = pathlib.Path(__file__).parent / "fixtures" / "noncommuting_counterexample"


def counterexample_matrices():
    """``rho``, ``phi_A`` and ``phi_B`` of the committed fixture, read without wqent."""
    return [np.array(json.loads((COUNTEREXAMPLE / f"{k}.json").read_text())["re"])
            for k in ("rho", "phi_a", "phi_b")]


def logm_gap(rho, phi_a, phi_b):
    """``S_A + S_B - S_AB`` from scipy's Schur-based ``logm``.

    It shares neither wqent's eigensolver nor its support rule.
    """
    da, db = len(phi_a), len(phi_b)
    weighted = np.kron(phi_a, phi_b) @ rho
    blocks = weighted.reshape(da, db, da, db)
    marg = rho.reshape(da, db, da, db)
    s_ab = -np.trace(weighted @ scipy.linalg.logm(rho))
    s_a = -np.trace(np.einsum("ibjb->ij", blocks) @ scipy.linalg.logm(np.einsum("ibjb->ij", marg)))
    s_b = -np.trace(np.einsum("aiaj->ij", blocks) @ scipy.linalg.logm(np.einsum("aiaj->ij", marg)))
    return complex(s_a + s_b - s_ab)


class TestNonCommutingCounterexample:
    """Outside the commuting family the trace condition does not imply subadditivity."""

    def test_condition_holds_and_subadditivity_fails(self):
        rho, phi_a, phi_b = counterexample_matrices()
        state = BipartiteState(DensityMatrix(rho), 2, 2)
        rep = check_subadditivity(WeightMatrix(phi_a), WeightMatrix(phi_b), state)
        assert rep.condition_holds and rep.condition_gap > 7e-3
        assert not rep.subadditivity_holds and rep.gap < -8e-3
        oracle = logm_gap(rho, phi_a, phi_b)
        assert abs(oracle.imag) < 1e-12
        assert abs(rep.gap - oracle.real) < 1e-12

    def test_cli_check_reports_it(self):
        files = [str(COUNTEREXAMPLE / f"{k}.json") for k in ("rho", "phi_a", "phi_b")]
        result = CliRunner().invoke(cli_main, ["check", *files, "--dims", "2x2"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["condition_holds"] is True
        assert report["subadditivity_holds"] is False
        assert abs(report["gap"] - logm_gap(*counterexample_matrices()).real) < 1e-12


def sample_diagonal_full_retest(rng, n, condition_satisfying):
    """The diagonal sampler as it was when every pass re-tested all n rows."""
    e = rng.standard_exponential((n, 3))
    probs = e / e.sum(axis=1, keepdims=True)
    lo, hi = DEFAULT_SCALE_RANGE
    weights = rng.uniform(lo, hi, size=(n, 4))
    f, c = weights[:, :2], weights[:, 2:]
    while condition_satisfying and (bad := (f[:, 0] - f[:, 1]) * (c[:, 1] - c[:, 0]) < 0.0).any():
        weights[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 4))
    return probs, weights


def diagonal_records_per_item(n, seed, tolerance=1e-10):
    """Violation records of the unconstrained diagonal audit, built one item at a time."""
    probs, weights = _sample_diagonal(np.random.default_rng(seed), n, False)
    fields = _diagonal_report_fields(probs, weights)
    out = []
    for i in np.nonzero(fields["gap"] < -tolerance)[0]:
        values = {k: float(v[i]) for k, v in fields.items()}
        report = SubadditivityReport(**values, condition_holds=values["condition_gap"] >= -tolerance,
                                     subadditivity_holds=values["gap"] >= -tolerance, tolerance=tolerance)
        p, w = probs[i].tolist(), weights[i].astype(complex)
        out.append((np.diag(np.array(p + [0.0], dtype=complex)), np.diag(w[:2]), np.diag(w[2:]), report))
    return out


def general_records_per_item(n, dim_a, dim_b, seed, tolerance):
    """Violation records of the general audit, each report built alone with keywords."""
    rng = np.random.default_rng(seed)
    rho = _density_stack(rng, n, dim_a * dim_b)
    wa = _weight_stack(rng, n, dim_a)
    wb = _weight_stack(rng, n, dim_b)
    fields = _report_fields(rho, hermitian_eig(rho), wa, wb, dim_a, dim_b, tolerance)
    out = []
    for i in np.nonzero(fields["gap"] < -tolerance)[0]:
        values = {k: float(v[i]) for k, v in fields.items()}
        report = SubadditivityReport(**values, condition_holds=values["condition_gap"] >= -tolerance,
                                     subadditivity_holds=values["gap"] >= -tolerance, tolerance=tolerance)
        out.append((rho[i], wa[i], wb[i], report))
    return out


def assert_plain_report(report, tolerance):
    """Python floats and bools throughout, and the caller's own tolerance object."""
    for k in REPORT_FIELDS:
        assert type(getattr(report, k)) is float, k
    assert type(report.condition_holds) is bool
    assert type(report.subadditivity_holds) is bool
    assert report.tolerance is tolerance


def matrix_json(m):
    return json.dumps(matrix_to_dict(m)).encode()


class TestDiagonalSampler:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("condition_satisfying", [True, False])
    def test_stream_matches_full_retest(self, seed, condition_satisfying):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        probs, weights = _sample_diagonal(rng_new, 10_000, condition_satisfying)
        ref_probs, ref_weights = sample_diagonal_full_retest(rng_ref, 10_000, condition_satisfying)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(weights, ref_weights)
        # both consumed the same number of draws
        assert rng_new.random() == rng_ref.random()


class TestViolationRecords:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_records_match_per_item_reference(self, seed):
        summary = audit_random(20_000, 2, 2, seed, "diagonal-unconstrained")
        expected = diagonal_records_per_item(20_000, seed)
        assert len(summary.violations) == len(expected) > 0
        for v, (state, wa, wb, report) in zip(summary.violations, expected):
            assert v.report == report
            for got, want in ((v.state, state), (v.weight_a, wa), (v.weight_b, wb)):
                assert got.dtype == want.dtype == np.complex128
                assert got.shape == want.shape
                assert matrix_json(got) == matrix_json(want)

    @pytest.mark.parametrize("regime, n, seed", [
        ("diagonal-unconstrained", 2000, 1),
        ("general-unconstrained", 1000, 4),
    ])
    def test_writing_one_record_leaves_the_others(self, regime, n, seed):
        summary = audit_random(n, 2, 2, seed, regime, tolerance=1e-9)
        assert len(summary.violations) >= 3
        before = [(v.state.copy(), v.weight_a.copy(), v.weight_b.copy()) for v in summary.violations]
        first = summary.violations[0]
        first.state[...] = 7.0
        first.weight_a[...] = 7.0
        first.weight_b[...] = 7.0
        for v, (state, wa, wb) in zip(summary.violations[1:], before[1:]):
            assert np.array_equal(v.state, state)
            assert np.array_equal(v.weight_a, wa)
            assert np.array_equal(v.weight_b, wb)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_general_records_match_per_item_reference(self, dims):
        tolerance = 1e-9
        summary = audit_random(2000, *dims, 1, "general-unconstrained", tolerance=tolerance)
        expected = general_records_per_item(2000, *dims, 1, tolerance)
        assert len(summary.violations) == len(expected) > 0
        for v, (state, wa, wb, report) in zip(summary.violations, expected):
            assert v.report == report
            assert np.array_equal(v.state, state)
            assert np.array_equal(v.weight_a, wa)
            assert np.array_equal(v.weight_b, wb)

    @pytest.mark.parametrize("regime, dims", [
        ("diagonal-unconstrained", (2, 2)),
        ("general-unconstrained", (2, 2)),
        ("general-unconstrained", (2, 3)),
    ])
    def test_reports_hold_python_scalars(self, regime, dims):
        tolerance = 3e-9
        summary = audit_random(2000, *dims, 1, regime, tolerance=tolerance)
        assert summary.violations
        for v in summary.violations:
            assert_plain_report(v.report, tolerance)

    def test_condition_satisfying_reports_hold_python_scalars(self, monkeypatch):
        # the sign test rules violations out here, so shift every gap below the tolerance
        # to send each sample through the regime's record path
        real = wqent.inequality._diagonal_report_fields

        def shifted(probs, weights):
            fields = real(probs, weights)
            fields["gap"] = fields["gap"] - 1.0
            return fields

        monkeypatch.setattr(wqent.inequality, "_diagonal_report_fields", shifted)
        tolerance = 3e-9
        summary = audit_random(50, 2, 2, 2, "diagonal-condition-satisfying", tolerance=tolerance)
        assert len(summary.violations) == 50
        for v in summary.violations:
            assert_plain_report(v.report, tolerance)
            assert v.report.condition_holds and not v.report.subadditivity_holds

    def test_condition_satisfying_records_none(self):
        for seed in (3, 11):
            assert audit_random(20_000, 2, 2, seed, "diagonal-condition-satisfying").violations == ()


class TestAudit:
    def test_condition_satisfying_has_no_violations(self):
        summary = audit_random(3000, 2, 2, 42, "diagonal-condition-satisfying", tolerance=1e-9)
        assert summary.samples == 3000
        assert summary.violations == ()
        assert summary.min_gap >= -1e-9
        assert summary.seed == 42

    def test_unconstrained_finds_violations_only_when_condition_fails(self):
        summary = audit_random(3000, 2, 2, 42, "diagonal-unconstrained", tolerance=1e-9)
        assert len(summary.violations) > 0
        for v in summary.violations:
            assert not v.report.subadditivity_holds
            # every violation must come with a failed trace condition
            assert v.report.condition_gap < 1e-12

    def test_violation_records_are_reproducible(self):
        summary = audit_random(500, 2, 2, 7, "diagonal-unconstrained", tolerance=1e-9)
        v = summary.violations[0]
        state = BipartiteState(DensityMatrix(v.state, tol=1e-9), 2, 2)
        wa = WeightMatrix(v.weight_a)
        wb = WeightMatrix(v.weight_b)
        rep = check_subadditivity(wa, wb, state)
        assert abs(rep.gap - v.report.gap) < 1e-12
        assert not rep.subadditivity_holds

    def test_deterministic_across_runs(self):
        a = audit_random(400, 2, 2, 5, "diagonal-unconstrained")
        b = audit_random(400, 2, 2, 5, "diagonal-unconstrained")
        assert a.min_gap == b.min_gap
        assert len(a.violations) == len(b.violations)
        for va, vb in zip(a.violations, b.violations):
            assert np.array_equal(va.state, vb.state)
            assert dataclasses.asdict(va.report) == dataclasses.asdict(vb.report)

    def test_general_regime_runs_and_is_deterministic(self):
        a = audit_random(40, 2, 2, 9, "general-unconstrained")
        b = audit_random(40, 2, 2, 9, "general-unconstrained")
        assert a.min_gap == b.min_gap
        assert math.isfinite(a.min_gap)

    def test_general_regime_other_dims(self):
        summary = audit_random(10, 2, 3, 1, "general-unconstrained")
        assert summary.samples == 10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_general_violations_reproduce_through_check(self, dims):
        summary = audit_random(2000, *dims, 1, "general-unconstrained", tolerance=1e-9)
        assert summary.violations
        for v in summary.violations:
            state = BipartiteState(DensityMatrix(v.state, tol=1e-9), *dims)
            rep = check_subadditivity(WeightMatrix(v.weight_a), WeightMatrix(v.weight_b), state)
            for k in REPORT_FIELDS:
                assert abs(getattr(rep, k) - getattr(v.report, k)) <= 1e-12, k
            assert (rep.condition_holds, rep.subadditivity_holds) == (
                v.report.condition_holds, v.report.subadditivity_holds)

    def test_factor_dims_below_two_are_a_validation_error(self):
        # the same rule and type as BipartiteState; a regime's 2x2 need stays a DimensionError
        with pytest.raises(ValidationError, match="factor dims must be >= 2"):
            audit_random(10, 1, 2, 0, "general-unconstrained")

    def test_diagonal_regimes_require_qubit_factors(self):
        with pytest.raises(DimensionError):
            audit_random(10, 2, 3, 0, "diagonal-condition-satisfying")

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            audit_random(0, 2, 2, 0, "diagonal-unconstrained")
        with pytest.raises(ValidationError):
            audit_random(10, 2, 2, -1, "diagonal-unconstrained")
        with pytest.raises(ValidationError):
            audit_random(10, 2, 2, 0, "no-such-regime")
        for tolerance in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                audit_random(10, 2, 2, 0, "diagonal-unconstrained", tolerance=tolerance)
        assert len(AUDIT_REGIMES) == 3
