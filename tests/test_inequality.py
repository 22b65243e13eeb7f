import dataclasses
import hashlib
import json
import math
import pathlib
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import CliRunner
from json_oracle import matrix_to_dict
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
from wqent.cli import audit_to_json, main as cli_main
from wqent.channel import Projector, channel_then_check
from wqent.entropy import qutrit_mutual_information_closed_form, weighted_entropy
from wqent.linalg import DEFAULT_TOL, _eigh, _fix_phases, _hermitian_part, _partial_trace, hermitian_eig
from wqent.linalg import SpectralDecomposition, partial_trace
from wqent.inequality import (
    AUDIT_REGIMES,
    AuditSummary,
    audit_random,
    check_subadditivity,
    qutrit_condition_gap,
    qutrit_weight_condition,
    SubadditivityReport,
    ViolationRecord,
    _diag_stack,
    _diagonal_chunks,
    _diagonal_entropy_terms,
    _diagonal_report_fields,
    _report_fields,
    _reports,
)

EXAMPLE_WEIGHTS = (0.75, 0.25, 1 / 3, 2 / 3)
REPORT_FIELDS = ("s_ab", "s_a", "s_b", "gap", "condition_lhs", "condition_rhs", "condition_gap")


def diagonal_fields(probs, weights, dim_a, dim_b):
    """The seven report fields of diagonal samples, one per row of ``probs``, their entropy sums computed
    first as a chunk does, from one row per cell."""
    return _diagonal_report_fields(probs, weights, dim_a, dim_b, _diagonal_entropy_terms(probs.T, weights, dim_a, dim_b))


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

    @pytest.mark.parametrize("p1, p2, weights", [
        (0.1, 0.1, (1e200, 0.0, 1e200, 0.0)),
        (0.1, 0.1, (1e200, 0.0, 0.0, 1e200)),
        (0.0, 0.5, (1.7e308, 0.0, 0.0, 1.7e308)),
        (np.array([0.1, 0.0]), np.array([0.1, 0.5]), (np.array([1.0, 2e155]), 0.0, 0.0, np.array([1.0, 1e155]))),
    ])
    def test_finite_weights_that_overflow_raise(self, p1, p2, weights):
        # the test suite turns a RuntimeWarning into an error, so none escapes either
        calls = {"the weight condition": lambda: qutrit_weight_condition(*weights),
                 "the trace-condition gap": lambda: qutrit_condition_gap(p1, p2, *weights),
                 "the qutrit mutual information": lambda: qutrit_mutual_information_closed_form(p1, p2, *weights)}
        for label, call in calls.items():
            with pytest.raises(ValidationError, match=f"^{label} overflows a float at these weights$"):
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
        # a genuine violation flips the flag at tight tolerance; the verdicts read the state's tol,
        # which stays below 1: the condition gap here is -0.222
        probs = (0.03, 0.6, 0.37, 0.0)
        wa = diag_weight(0.5, 1.5)  # phi1 < phi2
        wb = diag_weight(0.5, 1.5)  # chi2 > chi1 -> sign test fails
        rep = check_subadditivity(wa, wb, ququart_at(probs, 1e-10))
        assert rep.condition_gap < 0
        assert not rep.condition_holds
        loose = check_subadditivity(wa, wb, ququart_at(probs, abs(rep.condition_gap) * 2))
        assert loose.condition_holds

    def test_pure_state_entropies_are_positive_zeros(self):
        identity = diag_weight(1.0, 1.0)
        rep = check_subadditivity(identity, identity, embed_ququart(1.0, 0.0, 0.0, 0.0))
        for k in ("s_ab", "s_a", "s_b"):
            assert math.copysign(1.0, getattr(rep, k)) == 1.0, k

    def test_engine_fields_follow_the_report_field_order(self):
        # reports are built positionally from the engine's fields, so the orders must agree
        state, wa, wb = worked_setup()
        rho = state.rho
        fields = _report_fields(rho.matrix, rho.spectrum, wa.matrix, wb.matrix, 2, 2, rho.tol)
        names = [f.name for f in dataclasses.fields(SubadditivityReport)]
        assert tuple(fields) == REPORT_FIELDS == tuple(names[:7])
        assert tuple(diagonal_fields(np.array([[0.1, 0.1, 0.8]]), np.ones((1, 4)), 2, 2)) == REPORT_FIELDS

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
        value_shapes = []
        traces = []
        eigvalsh = np.linalg.eigvalsh

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return _eigh(m, *args, **kwargs)

        def counting_values(m, *args, **kwargs):
            value_shapes.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        def counting_trace(m, *args, **kwargs):
            traces.append(args)
            return _partial_trace(m, *args, **kwargs)

        # hermitian_eig reaches the solver through wqent.linalg._eigh, so it is counted too
        for module in (wqent.linalg, wqent.states, wqent.entropy, wqent.inequality):
            monkeypatch.setattr(module, "_eigh", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_values)
        monkeypatch.setattr(wqent.inequality, "_partial_trace", counting_trace)
        state = BipartiteState(DensityMatrix(rho), 2, 3)
        check_subadditivity(WeightMatrix(wa), WeightMatrix(wb), state)
        # rho_AB at validation; rho_B in evaluation, while rho_A, 2x2, takes the closed form
        assert shapes == [(6, 6), (3, 3)]
        # phi_A, phi_B at validation: a weight's eigenvalues alone
        assert value_shapes == [(2, 2), (3, 3)]
        # rho_A, rho_B, tr_B(phi rho) and tr_A(phi rho), each taken once
        assert len(traces) == 4

    def test_only_public_hermitian_eig_fixes_phases(self, monkeypatch):
        calls = []
        fix = wqent.linalg._fix_phases

        def counting(vecs):
            calls.append(vecs.shape)
            return fix(vecs)

        monkeypatch.setattr(wqent.linalg, "_fix_phases", counting)
        for _ in range(2):  # the counts repeat exactly
            calls.clear()
            rng = np.random.default_rng(9)
            state = BipartiteState(DensityMatrix(random_density(6, rng).matrix), 2, 3)
            check_subadditivity(WeightMatrix(random_weight(2, rng).matrix), WeightMatrix(random_weight(3, rng).matrix),
                                state)
            worked, wa, wb = worked_setup()
            channel_then_check(Projector(np.diag([1.0, 0.0, 1.0, 0.0])), wa, wb, worked)
            audit_random(200, 2, 3, 0, "general-unconstrained")
            assert calls == []
            m = state.rho.matrix
            hermitian_eig(m)
            hermitian_eig(np.stack([m, m]))
            assert calls == [(6, 6), (2, 6, 6)]

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
        # up to hermitian_eig's phase fix
        rng = np.random.default_rng(seed)
        skewed = random_density(da * db, rng).matrix + 1e-9 * rng.standard_normal((da * db,) * 2)
        validated = np.stack([random_density(da * db, rng).matrix, frame_state(rng, da, db, True).matrix,
                              DensityMatrix(skewed, tol=1e-6).matrix])
        for rho in (validated, _density_stack(rng, 5, da * db)):
            for m in (rho, partial_trace(rho, da, db, "A"), partial_trace(rho, da, db, "B")):
                assert np.array_equal(m, m.conj().swapaxes(-1, -2))
                got, want = _eigh(m), hermitian_eig(m)
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert _fix_phases(got.eigenvectors).tobytes() == want.eigenvectors.tobytes()


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


def report_bits(report):
    """Every field of a report as its exact bits, then both verdicts and the tolerance."""
    return tuple(float(getattr(report, k)).hex() for k in REPORT_FIELDS) + (
        report.condition_holds, report.subadditivity_holds, report.tolerance)


class TestReportEngine:
    @pytest.mark.parametrize("da", [2, 3, 4])
    @pytest.mark.parametrize("db", [2, 3, 4])
    def test_scalar_check_is_the_one_item_stack(self, da, db):
        # check_subadditivity is the engine at n = 1: its report has the bits of the engine run on a
        # one-item stack, dense states and states with a singular rho_A alike
        rng = np.random.default_rng(10 * da + db)
        for i in range(111):
            rho = random_density(da * db, rng) if i % 3 else frame_state(rng, da, db, i % 2 == 0)
            wa, wb = random_weight(da, rng), random_weight(db, rng)
            rep = check_subadditivity(wa, wb, BipartiteState(rho, da, db))
            spectrum = SpectralDecomposition(*(part[None] for part in rho.spectrum))
            fields = _report_fields(rho.matrix[None], spectrum, wa.matrix[None], wb.matrix[None], da, db, rho.tol)
            assert report_bits(rep) == report_bits(_reports(fields, rho.tol)[0]), (i, rep)

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

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_fields_do_not_depend_on_eigenvector_phases(self, seed, da, db):
        # the unchecked _eigh keeps LAPACK's phases, so every field must be invariant under a
        # unit phase on each eigenvector column, of the state's spectrum and of each reduced one
        rng = np.random.default_rng(seed)
        rho = np.stack([random_density(da * db, rng).matrix, frame_state(rng, da, db, True).matrix,
                        frame_state(rng, da, db, False).matrix])
        wa, wb = _weight_stack(rng, 3, da), _weight_stack(rng, 3, db)

        def rephased(spectrum):
            lams, vecs = spectrum
            phases = np.exp(2j * np.pi * rng.random(vecs.shape[:-2] + (1, vecs.shape[-1])))
            return SpectralDecomposition(lams, vecs * phases)

        spectrum = _eigh(rho)
        want = _report_fields(rho, spectrum, wa, wb, da, db, 1e-10)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wqent.entropy, "_eigh", lambda a: rephased(_eigh(a)))
            got = _report_fields(rho, rephased(spectrum), wa, wb, da, db, 1e-10)
        for k in REPORT_FIELDS:
            assert np.abs(got[k] - want[k]).max() <= 1e-14, k

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

    @pytest.mark.parametrize("weight, label", [
        (np.diag([1e200, 1.0]), r"the weight product phi_A \(x\) phi_B"),
        # phi_A (x) phi_B is finite, at 1e308 in every entry, but tr(phi rho) is 4e308
        (np.full((2, 2), 1e154), "the subadditivity report"),
    ])
    def test_finite_weights_whose_products_overflow_raise(self, weight, label):
        # the test suite turns a RuntimeWarning into an error, so none escapes either
        state = BipartiteState(DensityMatrix(np.full((4, 4), 0.25)), 2, 2)
        with pytest.raises(ValidationError, match=f"^{label} overflows a float at these weights$"):
            check_subadditivity(WeightMatrix(weight), WeightMatrix(weight), state)

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
        fields = diagonal_fields(probs, weights, 2, 2)
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
        fields = diagonal_fields(np.array([probs]), np.array([[f1, f2, c1, c2]]), 2, 2)
        rep = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), embed_ququart(*probs, 0.0))
        for k in REPORT_FIELDS:
            assert abs(fields[k][0] - getattr(rep, k)) < 1e-12, k
        if position < 2:
            # the closed form takes p3 as 1 - p1 - p2, which cannot land one ulp off 1e-12
            closed = qutrit_mutual_information_closed_form(probs[0], probs[1], f1, f2, c1, c2)
            assert abs(closed - rep.gap) < 1e-12
            assert abs(closed - fields["gap"][0]) < 1e-12

    @pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4), (3, 5)])
    def test_matches_batched_engine_bit_for_bit(self, da, db):
        m = da * db - 1
        probs, weights = sample_diagonal_full_retest(np.random.default_rng(5), 10_000, da, db, False)
        edge = [0.0, 1e-12, np.nextafter(1e-12, np.inf), np.nextafter(1e-12, -np.inf), 5e-324]
        # x at cell c, 0.5 at the next and 0.5 - x at the one before: at 2x2 the rows
        # (x, 0.5, 0.5 - x) and (0.5 - x, x, 0.5)
        rows = np.zeros((2 * len(edge) + 1, m))
        for i, (c, x) in enumerate((c, x) for c in (0, 1) for x in edge):
            rows[i, [c, (c + 1) % m, c - 1]] = x, 0.5, 0.5 - x
        rows[-1, 0] = 1.0
        probs = np.concatenate([probs, rows])
        weights = np.concatenate([weights, np.tile(np.resize(EXAMPLE_WEIGHTS, da + db), (len(rows), 1))])
        fields = diagonal_fields(probs, weights, da, db)
        # the same samples as the diagonal stacks the audit records, through the dense engine
        rho = _diag_stack(np.pad(probs, ((0, 0), (0, 1))))
        reference = _report_fields(rho, _eigh(rho), _diag_stack(weights[:, :da]), _diag_stack(weights[:, da:]),
                                   da, db, DEFAULT_TOL)
        assert tuple(fields) == tuple(reference)
        for k, v in fields.items():
            if (da, db) == (2, 2):
                assert v.tobytes() == reference[k].tobytes(), k
            else:
                # the engine sums each reduced spectrum in ascending order, the kernel in cell order
                assert np.abs(v - reference[k]).max() <= 2e-15, k

    def test_scan_gap_matches_report_gap_bit_for_bit(self, monkeypatch):
        # the scan judges each sample by its gap x_ab - (x_a + x_b): it must record exactly the samples
        # whose report gap is below -tol, and min_gap must be the smallest report gap, bit for bit
        probs, _ = sample_diagonal_full_retest(np.random.default_rng(8), 10_000, 2, 2, False)
        edge = [0.0, 1e-12, np.nextafter(1e-12, np.inf), np.nextafter(1e-12, -np.inf), 5e-324]
        rows = [[x, 0.5, 0.5 - x] for x in edge] + [[0.5 - x, x, 0.5] for x in edge]
        rows += [[0.5, 0.5 - x, x] for x in edge] + [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        probs = np.concatenate([probs, rows])
        draw = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ExponentialRows(probs, draw(seed)))
        draws = []

        def recorded(p, w, *dims):
            draws.append((p.T.copy(), w.copy()))
            return _diagonal_entropy_terms(p, w, *dims)

        monkeypatch.setattr(wqent.inequality, "_diagonal_entropy_terms", recorded)
        summary = audit_random(len(probs), 2, 2, 0, "diagonal-unconstrained")
        p, w = (np.concatenate(parts) for parts in zip(*draws))
        assert len(draws) == 2 and len(p) == len(probs)
        gap = diagonal_fields(p, w, 2, 2)["gap"]
        idx = np.flatnonzero(gap < -summary.tolerance)
        fields, (state, _, _) = summary.columns
        assert 0 < len(idx) < len(gap)
        assert fields["gap"].tobytes() == gap[idx].tobytes()
        assert np.einsum("nii->ni", state)[:, :3].real.tobytes() == p[idx].tobytes()
        assert np.float64(summary.min_gap).tobytes() == gap.min().tobytes()

    def test_handles_zero_probabilities(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        weights = np.tile([0.75, 0.25, 1 / 3, 2 / 3], (3, 1))
        fields = diagonal_fields(probs, weights, 2, 2)
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

    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.just((2, 2, True)), st.tuples(st.integers(2, 4), st.integers(2, 4), st.just(False))))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_regimes_bound_condition_gap(self, seed, regime):
        # condition-satisfying samples exist at 2x2 only; unconstrained ones at every dims
        da, db, condition_satisfying = regime
        probs, weights = sample_diagonal_full_retest(np.random.default_rng(seed), 2000, da, db, condition_satisfying)
        fields = diagonal_fields(probs, weights, da, db)
        assert (fields["gap"] - fields["condition_gap"]).min() >= -1e-12

    @pytest.mark.parametrize("da, db", [(da, db) for da in range(2, 5) for db in range(2, 5)])
    def test_bound_holds_on_1e5_unconstrained_samples(self, da, db):
        # one audit-sized draw per dims, whose smallest margin of gap over condition_gap is far
        # above rounding: a kernel that drops a row or column term fails here
        probs, weights = sample_diagonal_full_retest(np.random.default_rng(0), 100_000, da, db, False)
        fields = diagonal_fields(probs, weights, da, db)
        assert (fields["gap"] - fields["condition_gap"]).min() >= -1e-12


class TestDiagonalStateReduction:
    """For a diagonal state every report field reads only the diagonals of the weights.

    ``rho ln rho`` and both reduced states are diagonal, so every trace sees
    ``(phi_A)_aa (phi_B)_bb`` alone, and the off-support block of each reduced
    weighted state is 0. So diagonal states under any PSD product weights fall in the
    commuting family, with weights ``diag(phi_A) (x) diag(phi_B)``.
    """

    @pytest.mark.parametrize("da, db", [(da, db) for da in range(2, 5) for db in range(2, 5)])
    def test_dense_weights_report_as_their_diagonals(self, da, db):
        rng = np.random.default_rng(11)
        for k in range(30):
            p = rng.dirichlet(np.ones(da * db))
            if k % 2:
                p[rng.integers(da * db)] = 0.0
                p /= p.sum()
            state = BipartiteState(DensityMatrix(np.diag(p)), da, db)
            wa, wb = random_weight(da, rng), random_weight(db, rng)
            dense = check_subadditivity(wa, wb, state)
            diag = check_subadditivity(WeightMatrix(np.diag(np.diag(wa.matrix))),
                                       WeightMatrix(np.diag(np.diag(wb.matrix))), state)
            for name in REPORT_FIELDS:
                got, want = getattr(dense, name), getattr(diag, name)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, name, got, want)
            assert (dense.condition_holds, dense.subadditivity_holds) == (diag.condition_holds,
                                                                          diag.subadditivity_holds), k


COUNTEREXAMPLE =pathlib.Path(__file__).parent / "fixtures" / "noncommuting_counterexample"


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


def sample_diagonal_full_retest(rng, n, dim_a, dim_b, condition_satisfying):
    """The diagonal sampler drawn whole, as it was when every resampling pass re-tested all n rows.

    Every probability first, then every weight row (phi, then chi), then the redraws of the
    condition-satisfying regime, which exists at 2x2 only. Each row is normalised by its sum
    taken left to right, as the audit's sampler rounds it.
    """
    e = rng.standard_exponential((n, dim_a * dim_b - 1))
    total = e[:, 0].copy()
    for c in range(1, e.shape[1]):
        total += e[:, c]
    probs = e / total[:, None]
    lo, hi = DEFAULT_SCALE_RANGE
    weights = rng.uniform(lo, hi, size=(n, dim_a + dim_b))
    f, c = weights[:, :2], weights[:, 2:]
    while condition_satisfying and (bad := (f[:, 0] - f[:, 1]) * (c[:, 1] - c[:, 0]) < 0.0).any():
        weights[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 4))
    return probs, weights


def diagonal_records_per_item(n, seed, tolerance=1e-10):
    """Violation records of the unconstrained diagonal audit, built one item at a time."""
    probs, weights = sample_diagonal_full_retest(np.random.default_rng(seed), n, 2, 2, False)
    fields = diagonal_fields(probs, weights, 2, 2)
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
    fields = _report_fields(rho, _eigh(rho), wa, wb, dim_a, dim_b, tolerance)
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


class ExponentialRows:
    """A generator whose exponential draw is the given rows; every other draw comes from ``rng``."""

    def __init__(self, rows, rng):
        self.rows, self.rng = rows, rng

    def standard_exponential(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()

    def __getattr__(self, name):
        return getattr(self.rng, name)


def chunk_draws(monkeypatch, rng, n, dim_a, dim_b, condition_satisfying):
    """The probabilities, one row per sample, and weights of each chunk the diagonal scan evaluates."""
    draws = []

    def recorded(p, w, *dims):
        draws.append((p.T.copy(), w.copy()))
        zero = np.zeros(len(w))
        return zero, zero, zero

    monkeypatch.setattr(wqent.inequality, "_diagonal_entropy_terms", recorded)
    for _ in _diagonal_chunks(rng, n, dim_a, dim_b, condition_satisfying):
        pass
    return draws


class TestDiagonalSampler:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("condition_satisfying", [True, False])
    def test_stream_matches_full_retest(self, monkeypatch, seed, condition_satisfying):
        # at n = 1e5 the resampler runs its roughly 19 passes at audit size, the first ones over
        # several blocks; with 7-row chunks every pass crosses block boundaries
        default = wqent.inequality._CHUNK_ENTRIES
        for dim_a, dim_b in [(2, 2)] if condition_satisfying else [(2, 2), (2, 3), (3, 3)]:
            for n, entries in ((10_000, default), (100_000, default), (1000, 7 * (dim_a * dim_b) ** 2)):
                monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", entries)
                rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                draws = chunk_draws(monkeypatch, rng_new, n, dim_a, dim_b, condition_satisfying)
                ref_probs, ref_weights = sample_diagonal_full_retest(rng_ref, n, dim_a, dim_b, condition_satisfying)
                size = wqent.inequality._chunk_items(dim_a * dim_b)
                assert len(draws) == -(-n // size) > 1
                for start, (probs, weights) in zip(range(0, n, size), draws):
                    assert np.array_equal(probs, ref_probs[start:start + size])
                    assert np.array_equal(weights, ref_weights[start:start + size])
                # both consumed the same number of draws
                assert rng_new.random() == rng_ref.random()


# sha256 of audit_to_json(audit_random(20_000, dim_a, dim_b, 3, regime), dim_a, dim_b), and the audit
# generator's next random() after the audit, as the audits gave them when the whole sample was normalized
# at once, before chunking: wherever the chunks fall, their bytes and their stream stay these
PINNED_AUDITS = {
    ("diagonal-unconstrained", 2, 2): ("b11f734c06e41f830107f61241ea7ed33d9e8d73159d112fef85a15b9e018f3c",
                                       0.022103829074491044),
    ("diagonal-unconstrained", 2, 3): ("f8d9ab643b2043160564bf84994909c6e47b551f868fe0a4865172ef282a130e",
                                       0.7840484793543906),
    ("diagonal-unconstrained", 3, 3): ("123e4a66f62e7a837f690a4e9c2d7e5e4749c3bc0e9ca4cded0a618c5cf724be",
                                       0.3426518082644153),
    ("diagonal-condition-satisfying", 2, 2): ("e1e62b74c045e33eb2771330fe0bb54434a3ede0defa820b42545638be1cb6bd",
                                              0.8282242927602265),
}


class TestPinnedAudits:
    # 1000 entries: 62 samples a chunk at 2x2, 27 at 2x3 and 12 at 3x3, against 8192, 3640 and 1618
    @pytest.mark.parametrize("entries", [None, 1000])
    @pytest.mark.parametrize("regime, dim_a, dim_b", list(PINNED_AUDITS))
    def test_json_digest_and_stream(self, monkeypatch, regime, dim_a, dim_b, entries):
        if entries is not None:
            monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", entries)
        generators, draw = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: generators.append(draw(seed)) or generators[-1])
        summary = audit_random(20_000, dim_a, dim_b, 3, regime)
        digest, next_draw = PINNED_AUDITS[regime, dim_a, dim_b]
        assert hashlib.sha256(audit_to_json(summary, dim_a, dim_b).encode()).hexdigest() == digest
        assert len(generators) == 1
        assert generators[0].random() == next_draw


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
        shift_diagonal_gaps(monkeypatch, 1.0)
        tolerance = 3e-9
        summary = audit_random(50, 2, 2, 2, "diagonal-condition-satisfying", tolerance=tolerance)
        assert len(summary.violations) == 50
        for v in summary.violations:
            assert_plain_report(v.report, tolerance)
            assert v.report.condition_holds and not v.report.subadditivity_holds

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_diagonal_records_at_any_dims_match_check(self, dims):
        d = dims[0] * dims[1]
        summary = audit_random(2000, *dims, 1, "diagonal-unconstrained")
        assert summary.violations
        for v in summary.violations:
            assert v.state.shape == (d, d) and v.state[-1, -1] == 0.0
            assert (v.weight_a.shape, v.weight_b.shape) == ((dims[0],) * 2, (dims[1],) * 2)
            rep = check_subadditivity(WeightMatrix(v.weight_a), WeightMatrix(v.weight_b),
                                      BipartiteState(DensityMatrix(v.state), *dims))
            for k in REPORT_FIELDS:
                assert abs(getattr(rep, k) - getattr(v.report, k)) <= 1e-12, k
            # the weighted Gibbs bound: no diagonal violation passes its trace condition
            assert not v.report.condition_holds

    def test_condition_satisfying_records_none(self):
        for seed in (3, 11):
            assert audit_random(20_000, 2, 2, seed, "diagonal-condition-satisfying").violations == ()


def shift_diagonal_gaps(monkeypatch, shift):
    """Lower every diagonal gap by ``shift``: the entropy sums come back with ``x_ab`` lowered by it,
    which moves the scan's gap and the violators' report ``gap`` together.

    Returns the list of sample counts the entropy sums are evaluated for, one per call.
    """
    real_terms = wqent.inequality._diagonal_entropy_terms
    sizes = []

    def shifted_terms(probs, weights, *dims):
        sizes.append(len(weights))
        x_ab, x_a, x_b = real_terms(probs, weights, *dims)
        return x_ab - shift, x_a, x_b

    monkeypatch.setattr(wqent.inequality, "_diagonal_entropy_terms", shifted_terms)
    return sizes


def assert_same_audit(got, want):
    """Same ``min_gap`` bits, same reports, same record matrices down to dtype, shape and bytes."""
    assert np.float64(got.min_gap).tobytes() == np.float64(want.min_gap).tobytes()
    assert (got.samples, got.seed, got.regime) == (want.samples, want.seed, want.regime)
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert g.report == w.report
        for a, b in ((g.state, w.state), (g.weight_a, w.weight_a), (g.weight_b, w.weight_b)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


class TestChunkedScan:
    """Every regime is evaluated chunk by chunk; where the chunks fall must not show in the summary."""

    @pytest.fixture
    def shifted_diagonal(self, monkeypatch):
        # shift every gap by 0.1 so that both regimes record a mix of violators and holders;
        # the shift is elementwise, so it does not depend on where a chunk starts
        return shift_diagonal_gaps(monkeypatch, 0.1)

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 50])
    @pytest.mark.parametrize("regime", AUDIT_REGIMES[:2])
    def test_diagonal_chunk_boundaries_leave_no_trace(self, monkeypatch, shifted_diagonal, regime, n):
        tolerance = 1e-9
        whole = audit_random(n, 2, 2, 2, regime, tolerance=tolerance)
        assert shifted_diagonal == [n]
        shifted_diagonal.clear()
        # 7 embedded 4x4 states per chunk
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 7 * 16)
        chunked = audit_random(n, 2, 2, 2, regime, tolerance=tolerance)
        assert shifted_diagonal == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
        assert_same_audit(chunked, whole)
        if n == 50:
            assert 0 < len(whole.violations) < n

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_diagonal_chunks_are_sized_by_the_dims(self, monkeypatch, shifted_diagonal, n):
        whole = audit_random(n, 2, 3, 2, "diagonal-unconstrained", tolerance=1e-9)
        assert shifted_diagonal == [n]
        shifted_diagonal.clear()
        # 7 embedded 6x6 states per chunk
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 7 * 36)
        chunked = audit_random(n, 2, 3, 2, "diagonal-unconstrained", tolerance=1e-9)
        assert shifted_diagonal == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
        assert_same_audit(chunked, whole)

    def test_default_chunk_sizes(self):
        sizes = {dims: wqent.inequality._chunk_items(dims[0] * dims[1])
                 for dims in ((2, 2), (2, 3), (3, 3), (4, 4))}
        assert sizes == {(2, 2): 8192, (2, 3): 3640, (3, 3): 1618, (4, 4): 512}

    @pytest.mark.parametrize("regime, dims", [
        ("diagonal-condition-satisfying", (2, 2)),
        ("diagonal-unconstrained", (2, 2)),
        ("diagonal-unconstrained", (3, 3)),
    ])
    def test_diagonal_entropy_sums_run_once_per_chunk(self, monkeypatch, regime, dims):
        # violators read their report fields from the chunk's sums, so the kernel never runs again
        real_terms, sizes = wqent.inequality._diagonal_entropy_terms, []

        def counted_terms(probs, weights, *args):
            sizes.append(len(weights))
            return real_terms(probs, weights, *args)

        monkeypatch.setattr(wqent.inequality, "_diagonal_entropy_terms", counted_terms)
        n = 20_000
        summary = audit_random(n, *dims, 0, regime)
        size = wqent.inequality._chunk_items(dims[0] * dims[1])
        assert sizes == [size] * (n // size) + [n % size]
        if regime == "diagonal-unconstrained":
            assert len(summary.violations) > len(sizes)
            assert summary.min_gap == min(v.report.gap for v in summary.violations)

    @pytest.mark.parametrize("n", [299, 300])
    def test_general_within_one_chunk_matches_whole_sample(self, monkeypatch, n):
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 300 * 16)
        tolerance = 1e-9
        summary = audit_random(n, 2, 2, 24, "general-unconstrained", tolerance=tolerance)
        expected = general_records_per_item(n, 2, 2, 24, tolerance)
        assert len(summary.violations) == len(expected) > 0
        for v, (state, wa, wb, report) in zip(summary.violations, expected):
            assert v.report == report
            assert np.array_equal(v.state, state)
            assert np.array_equal(v.weight_a, wa)
            assert np.array_equal(v.weight_b, wb)

    def test_general_above_one_chunk_records_reproduce(self, monkeypatch):
        # 400 items per chunk at 2x3: 13 chunks, each drawing its states, then its A and B weights
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 400 * 36)
        tolerance = 1e-9
        summary = audit_random(5000, 2, 3, 2, "general-unconstrained", tolerance=tolerance)
        assert len(summary.violations) >= 2
        for v in summary.violations:
            state = BipartiteState(DensityMatrix(v.state, tol=tolerance), 2, 3)
            rep = check_subadditivity(WeightMatrix(v.weight_a), WeightMatrix(v.weight_b), state)
            for k in REPORT_FIELDS:
                assert abs(getattr(rep, k) - getattr(v.report, k)) <= 1e-12, k
        assert summary.min_gap == min(v.report.gap for v in summary.violations)

    def test_general_memory_is_bounded_by_the_chunk(self):
        # evaluated whole, this sample peaks near 150 MB
        audit_random(10, 4, 4, 0, "general-unconstrained")
        tracemalloc.start()
        try:
            audit_random(5000, 4, 4, 0, "general-unconstrained")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak

    @pytest.mark.parametrize("regime", AUDIT_REGIMES[:2])
    def test_diagonal_memory_is_bounded(self, regime):
        # the sample takes 5.6 MB here (2.4 MB of probabilities, then 3.2 MB of weights, which the
        # unconstrained regime draws per chunk) and seed 5's 5,063 records about 6.8 MB once read; the
        # audit keeps only its violators' columns, so neither regime holds the sample and the records at once
        audit_random(10, 2, 2, 0, regime)
        tracemalloc.start()
        try:
            audit_random(100_000, 2, 2, 5, regime)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6, peak


class TestBulkReports:
    """Audit reports and records are built without ``__init__``; they must behave as constructed ones do."""

    @pytest.fixture(scope="class")
    def reports(self):
        reports = [v.report for v in audit_random(2000, 2, 2, 1, "diagonal-unconstrained").violations]
        assert reports
        return reports

    def test_equal_and_hash_alike(self, reports):
        for r in reports:
            built = SubadditivityReport(**dataclasses.asdict(r))
            assert r == built and built == r
            assert hash(r) == hash(built)
            assert repr(r) == repr(built)
            assert list(vars(r).items()) == list(vars(built).items())
            assert dataclasses.asdict(r) == dataclasses.asdict(built)

    def test_replace_and_pickle(self, reports):
        for r in reports:
            built = SubadditivityReport(**dataclasses.asdict(r))
            moved = dataclasses.replace(r, gap=1.0)
            assert type(moved) is SubadditivityReport
            assert moved == dataclasses.replace(built, gap=1.0)
            assert moved.gap == 1.0 and r.gap != 1.0
            again = pickle.loads(pickle.dumps(r))
            assert again == built and repr(again) == repr(built)

    def test_frozen(self, reports):
        r = reports[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.gap = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.gap

    def test_violation_records_behave_as_constructed(self):
        records = audit_random(2000, 2, 2, 1, "diagonal-unconstrained").violations
        names = [f.name for f in dataclasses.fields(ViolationRecord)]
        for v in records:
            built = ViolationRecord(**vars(v))
            assert list(vars(v)) == list(vars(built)) == names
            assert repr(v) == repr(built)
            again = pickle.loads(pickle.dumps(v))
            assert again.report == v.report and np.array_equal(again.state, v.state)
            assert dataclasses.replace(v, report=None).state is v.state
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].report = None


LAZY_CASES = [
    (20_000, (2, 2), "diagonal-unconstrained"),
    (20_000, (2, 3), "diagonal-unconstrained"),
    (20_000, (3, 3), "diagonal-unconstrained"),
    (20_000, (2, 2), "general-unconstrained"),
]


@pytest.fixture
def counted_reports(monkeypatch):
    """Patch ``_reports`` to count its calls; returns the list of the item counts it was called for."""
    calls = []

    def counted(fields, tolerance):
        calls.append(len(fields["gap"]))
        return _reports(fields, tolerance)

    monkeypatch.setattr(wqent.inequality, "_reports", counted)
    return calls


class TestLazyRecords:
    """An audit keeps its violators as one table; ``violations`` builds their records on first read."""

    @pytest.mark.parametrize("n, dims, regime", LAZY_CASES)
    def test_head_json_eq_and_repr_build_no_record(self, counted_reports, n, dims, regime):
        summary = audit_random(n, *dims, 0, regime, tolerance=1e-9)
        twin = audit_random(n, *dims, 0, regime, tolerance=1e-9)
        assert (summary.samples, summary.seed, summary.regime) == (n, 0, regime)
        assert math.isfinite(summary.min_gap)
        text = audit_to_json(summary, *dims)
        assert summary == twin
        assert len(repr(summary)) < 200
        assert counted_reports == []
        records = summary.violations
        # one build, over the whole table
        assert counted_reports == [len(summary.columns[0]["gap"])]
        assert len(records) == sum(counted_reports) == len(json.loads(text)["violations"]) > 0
        # a second read returns the kept tuple and builds nothing
        assert summary.violations is records
        assert counted_reports == [len(summary.columns[0]["gap"])]

    @pytest.mark.parametrize("n, dims, regime", LAZY_CASES)
    def test_records_equal_an_eager_build(self, n, dims, regime):
        summary = audit_random(n, *dims, 0, regime, tolerance=1e-9)
        fields, stacks = summary.columns
        eager = [(*m, r) for m, r in zip(zip(*stacks), _reports(fields, 1e-9))]
        assert len(summary.violations) == len(eager) > 0
        for v, (state, wa, wb, report) in zip(summary.violations, eager):
            assert type(v) is ViolationRecord
            assert repr(v.report) == repr(report)
            for got, want in ((v.state, state), (v.weight_a, wa), (v.weight_b, wb)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("n, dims, regime, table", [
        (20_000, (2, 2), "diagonal-unconstrained", "_diagonal_table"),
        (20_000, (3, 3), "diagonal-unconstrained", "_diagonal_table"),
        (20_000, (2, 2), "general-unconstrained", "_general_table"),
        (20_000, (2, 2), "diagonal-condition-satisfying", "_diagonal_table"),
        (8000, (2, 3), "general-unconstrained", "_general_table"),
    ])
    def test_table_is_built_once_with_violators_and_never_without(self, monkeypatch, n, dims, regime, table):
        calls, build = [], getattr(wqent.inequality, table)

        def counted(*args):
            calls.append(len(args[-1]))
            return build(*args)

        monkeypatch.setattr(wqent.inequality, table, counted)
        summary = audit_random(n, *dims, 0, regime)
        assert n > wqent.inequality._chunk_items(dims[0] * dims[1])
        if regime == "diagonal-condition-satisfying" or dims == (2, 3):
            assert summary.columns is None and calls == [] and summary.violations == ()
        else:
            # the joined rows of every chunk, in one call
            assert calls == [len(summary.violations)] and calls[0] > 0

    def test_equal_arguments_compare_equal(self):
        a = audit_random(2000, 2, 2, 1, "diagonal-unconstrained")
        b = audit_random(2000, 2, 2, 1, "diagonal-unconstrained")
        assert a == b and not a != b
        assert a.violations[0] == b.violations[0]
        assert a.violations == b.violations
        assert a != audit_random(2000, 2, 2, 2, "diagonal-unconstrained")
        assert a != audit_random(2000, 2, 2, 1, "diagonal-unconstrained", tolerance=1e-9)
        assert a.violations[0] != a.violations[1]
        moved = dataclasses.replace(a.violations[0], state=a.violations[0].state.copy())
        moved.state[0, 0] += 1e-12
        assert moved != a.violations[0]
        assert a != "audit" and a.violations[0] != "record"

    def test_equality_ignores_where_chunks_fall(self, monkeypatch):
        assert wqent.inequality._chunk_items(4) >= 2000
        whole = audit_random(2000, 2, 2, 1, "diagonal-unconstrained")
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 7 * 16)
        chunked = audit_random(2000, 2, 2, 1, "diagonal-unconstrained")
        # more violators than one 7-sample chunk holds, so the table joins several chunks
        assert len(chunked.columns[0]["gap"]) > wqent.inequality._chunk_items(4) == 7
        assert chunked == whole
        assert audit_to_json(chunked, 2, 2) == audit_to_json(whole, 2, 2)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_general_chunks_join_as_one_whole_sample_evaluation(self, monkeypatch, seed):
        # chunks draw their own states and weights, so the reference evaluates the same draws at once
        draws, engine = [], _report_fields

        def recorded(rho, spectrum, wa, wb, *args):
            draws.append((rho.copy(), wa.copy(), wb.copy()))
            return engine(rho, spectrum, wa, wb, *args)

        monkeypatch.setattr(wqent.inequality, "_report_fields", recorded)
        monkeypatch.setattr(wqent.inequality, "_CHUNK_ENTRIES", 64 * 16)
        chunked = audit_random(2000, 2, 2, seed, "general-unconstrained")
        rho, wa, wb = (np.concatenate(parts) for parts in zip(*draws))
        fields = _report_fields(rho, _eigh(rho), wa, wb, 2, 2, DEFAULT_TOL)
        idx = np.flatnonzero(fields["gap"] < -DEFAULT_TOL)
        assert len(draws) == 32 and len(np.unique(idx // 64)) > 1
        whole = AuditSummary(2000, float(fields["gap"].min()), seed, "general-unconstrained", DEFAULT_TOL,
                             ({k: v[idx] for k, v in fields.items()}, (rho[idx], wa[idx], wb[idx])))
        assert chunked == whole
        assert audit_to_json(chunked, 2, 2) == audit_to_json(whole, 2, 2)

    def test_no_violators_compare_by_head(self):
        a = audit_random(500, 2, 2, 3, "diagonal-condition-satisfying")
        assert a.columns is None and a.violations == ()
        assert a == audit_random(500, 2, 2, 3, "diagonal-condition-satisfying")
        assert a != audit_random(500, 2, 2, 4, "diagonal-condition-satisfying")


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

    def test_readme_general_audit_violations_all_fail_the_condition(self):
        # the README's "Where the inequality holds" quotes this count: 40 violations in three chunks
        summary = audit_random(20_000, 2, 2, 1, "general-unconstrained")
        assert len(summary.violations) == 40
        assert not any(v.report.condition_holds for v in summary.violations)
        assert all(v.report.condition_gap < 0.0 for v in summary.violations)

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
        # a record re-checked one at a time reproduces its report bit for bit
        summary = audit_random(20_000, *dims, 1, "general-unconstrained", tolerance=1e-9)
        assert summary.violations
        for v in summary.violations:
            state = BipartiteState(DensityMatrix(v.state, tol=1e-9), *dims)
            rep = check_subadditivity(WeightMatrix(v.weight_a), WeightMatrix(v.weight_b), state)
            assert report_bits(rep) == report_bits(v.report)

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

    @pytest.mark.parametrize("position, value", [
        (0, 1e3), (1, 2.0), (2, np.float64(2.0)), (3, 1.5), (3, "0"),
        (0, np.int64(40)), (1, np.int32(2)), (2, np.uint8(2)), (3, np.int16(7)), (3, True),
    ])
    def test_arguments_must_be_integers(self, position, value):
        # n, dim_a, dim_b and seed go through operator.index: Python and numpy integers pass,
        # anything else is a ValidationError, never a bare TypeError from deeper down
        args = [40, 2, 2, 7]
        args[position] = value
        for regime in ("diagonal-unconstrained", "general-unconstrained"):
            if isinstance(value, (float, str)):
                with pytest.raises(ValidationError, match="must be integers"):
                    audit_random(*args, regime)
            else:
                got = audit_random(*args, regime)
                want = audit_random(*[int(a) for a in args], regime)
                assert (got.samples, got.seed, got.min_gap) == (want.samples, want.seed, want.min_gap)
                assert type(got.seed) is int


class TestGeneralAuditKernels:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_one_chunk_diagonalizes_only_what_has_no_closed_form(self, monkeypatch, dims):
        # 2x2 reduced states take the closed-form entropy and dim-2 frames the closed-form
        # Haar factor, so a 2x2 chunk makes one eigh call (the joint states) and no QR
        eighs, qrs = [], []
        eigh, qr = _eigh, np.linalg.qr

        def counting_eigh(a):
            eighs.append(a.shape)
            return eigh(a)

        def counting_qr(a, *args, **kwargs):
            qrs.append(a.shape)
            return qr(a, *args, **kwargs)

        for module in (wqent.linalg, wqent.states, wqent.entropy, wqent.inequality):
            monkeypatch.setattr(module, "_eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        da, db = dims
        audit_random(300, da, db, 0, "general-unconstrained")
        d = da * db
        assert eighs == [(300, d, d)] + [(300, k, k) for k in (da, db) if k > 2]
        assert qrs == [(300, k, k) for k in (da, db) if k > 2]
