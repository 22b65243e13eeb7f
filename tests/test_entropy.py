import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import CliRunner
from jacobi_oracle import jacobi_eigh
from json_oracle import matrix_to_dict, report_to_dict
import wqent.entropy
import wqent.inequality
from wqent.errors import DimensionError, InvalidSimplexError, ValidationError
from wqent.linalg import SUPPORT_EPS, _eigh, _within_noise, hermitian_eig, partial_trace, xlogx_matrix
from wqent.states import (
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_ququart,
    embed_qutrit,
    haar_unitary,
    random_density,
    random_weight,
    _density_stack,
)
from wqent.entropy import _subsystem_entropy, qutrit_mutual_information_closed_form, weighted_entropy
from wqent.cli import main as cli_main
from wqent.inequality import check_subadditivity

EXAMPLE_WEIGHTS = (0.75, 0.25, 1 / 3, 2 / 3)
EXAMPLE_PROBS = (0.1, 0.1)


def worked_setup():
    state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
    wa = WeightMatrix(np.diag([0.75, 0.25]).astype(complex))
    wb = WeightMatrix(np.diag([1 / 3, 2 / 3]).astype(complex))
    return state, wa, wb


def diag_weight(x1, x2):
    return WeightMatrix(np.diag([x1, x2]).astype(complex))


class TestWeightedEntropy:
    def test_pure_state_is_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        phi = WeightMatrix(np.diag([1.3, 0.7]))
        assert abs(weighted_entropy(phi, rho)) < 1e-12

    def test_identity_weight_gives_von_neumann(self):
        rho = DensityMatrix(np.eye(2) / 2)
        phi = WeightMatrix(np.eye(2))
        assert abs(weighted_entropy(phi, rho) - math.log(2)) < 1e-12

    def test_worked_example_joint(self):
        state, wa, wb = worked_setup()
        phi_ab = WeightMatrix(np.kron(wa.matrix, wb.matrix))
        s = weighted_entropy(phi_ab, state.rho)
        expected = -(
            0.25 * 0.1 * math.log(0.1)
            + 0.5 * 0.1 * math.log(0.1)
            + (1 / 12) * 0.8 * math.log(0.8)
        )
        assert abs(s - expected) < 1e-13
        assert abs(s - 0.18757011872883408) < 1e-13

    def test_diagonal_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = rng.standard_exponential(4)
            p = e / e.sum()
            rho = DensityMatrix(np.diag(p).astype(complex))
            w = rng.uniform(0.05, 2.0, size=4)
            phi = WeightMatrix(np.diag(w).astype(complex))
            expected = -sum(wi * pi * math.log(pi) for wi, pi in zip(w, p) if pi > 1e-12)
            assert abs(weighted_entropy(phi, rho) - expected) < 1e-12

    def test_nonnegative_for_psd_weight(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            rho = random_density(3, rng)
            phi = random_weight(3, rng)
            assert weighted_entropy(phi, rho) >= -1e-10

    def test_unitary_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_density(3, rng)
            phi = random_weight(3, rng)
            u = haar_unitary(3, rng)
            s1 = weighted_entropy(phi, rho)
            rho_u = DensityMatrix(u @ rho.matrix @ u.conj().T)
            phi_u = WeightMatrix(u @ phi.matrix @ u.conj().T)
            assert abs(weighted_entropy(phi_u, rho_u) - s1) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_entropy(WeightMatrix(np.eye(3)), DensityMatrix(np.eye(2) / 2))

    def test_noise_eigenvalue_accepted_at_tol_counts_as_zero(self):
        # validated at tol=1e-6, the -1e-8 eigenvalue is noise, not an error
        p = np.array([0.4 + 1e-8, 0.35, 0.25, -1e-8])
        w = np.array([0.5, 1.0, 1.5, 2.0])
        rho = DensityMatrix(np.diag(p), tol=1e-6)
        phi = WeightMatrix(np.diag(w), tol=1e-6)
        expected = -sum(wi * pi * math.log(pi) for wi, pi in zip(w[:3], p[:3]))
        assert abs(weighted_entropy(phi, rho) - expected) < 1e-13


def reduced_weighted_states(monkeypatch, wa, wb, state):
    """``tr_B(phi rho)`` and ``tr_A(phi rho)`` as one check hands them to the subsystem entropy kernel."""
    seen = []
    kernel = wqent.inequality._subsystem_entropy

    def recording(x, *args):
        seen.append(x)
        return kernel(x, *args)

    with monkeypatch.context() as m:
        m.setattr(wqent.inequality, "_subsystem_entropy", recording)
        check_subadditivity(wa, wb, state)
    return seen


class TestReducedWeightedState:
    def test_worked_example_values(self, monkeypatch):
        state, wa, wb = worked_setup()
        xa, xb = reduced_weighted_states(monkeypatch, wa, wb, state)
        # tr_B(phi rho) = diag(w11 p1 + w12 p2, w21 p3), weights w = phi x chi
        assert np.abs(xa - np.diag([0.25 * 0.1 + 0.5 * 0.1, (1 / 12) * 0.8])).max() < 1e-15
        assert np.abs(xb - np.diag([0.25 * 0.1 + (1 / 12) * 0.8, 0.5 * 0.1])).max() < 1e-15

    def test_identity_weight_reduces_to_marginal(self, monkeypatch):
        rng = np.random.default_rng(10)
        rho = random_density(6, rng)
        state = BipartiteState(rho, 2, 3)
        xa, _ = reduced_weighted_states(monkeypatch, WeightMatrix(np.eye(2)), WeightMatrix(np.eye(3)), state)
        assert np.abs(xa - partial_trace(rho.matrix, 2, 3, "A")).max() < 1e-12

    def test_trace_identity(self, monkeypatch):
        # tr of either reduction equals tr(phi_AB rho_AB)
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density(4, rng)
            state = BipartiteState(rho, 2, 2)
            wa, wb = random_weight(2, rng), random_weight(2, rng)
            full = np.einsum("ij,ji->", np.kron(wa.matrix, wb.matrix), rho.matrix)
            for x in reduced_weighted_states(monkeypatch, wa, wb, state):
                assert abs(np.trace(x) - full) < 1e-12


class TestSubsystemEntropy:
    def test_worked_example_sides(self):
        state, wa, wb = worked_setup()
        rep = check_subadditivity(wa, wb, state)
        ea = -((0.25 * 0.1 + 0.5 * 0.1) * math.log(0.2) + (1 / 12) * 0.8 * math.log(0.8))
        eb = -((0.25 * 0.1 + (1 / 12) * 0.8) * math.log(0.9) + 0.5 * 0.1 * math.log(0.1))
        assert abs(rep.s_a - ea) < 1e-13
        assert abs(rep.s_b - eb) < 1e-13

    def test_identity_weight_gives_marginal_von_neumann(self):
        rng = np.random.default_rng(21)
        rho = random_density(4, rng)
        state = BipartiteState(rho, 2, 2)
        ident = WeightMatrix(np.eye(2))
        s_a = check_subadditivity(ident, ident, state).s_a
        rho_a = partial_trace(rho.matrix, 2, 2, "A")
        expected = -np.trace(xlogx_matrix(hermitian_eig(rho_a))).real
        assert abs(s_a - expected) < 1e-12

    def test_singular_marginal_is_fine(self):
        # the embedded qutrit has rho_B with a hard zero only when p2 = 0
        state = embed_ququart(0.5, 0.0, 0.5, 0.0)
        s_b = check_subadditivity(diag_weight(0.75, 0.25), diag_weight(1 / 3, 2 / 3), state).s_b
        # rho_B = diag(1, 0): support log is 0 there, so s_b = 0
        assert abs(s_b) < 1e-12

    def test_noncommuting_state_matches_the_symmetrised_logm_oracle(self):
        # s_X is the entropy of the Hermitian reduced weighted state tr_other((phi rho + rho phi) / 2)
        wa, wb, state = noncommuting_setup()
        rep = check_subadditivity(wa, wb, state)
        rho, phi = state.rho.matrix, np.kron(wa.matrix, wb.matrix)
        sym = ((phi @ rho + rho @ phi) / 2).reshape(2, 2, 2, 2)
        marg = rho.reshape(2, 2, 2, 2)
        for got, keep in ((rep.s_a, "ibjb->ij"), (rep.s_b, "aiaj->ij")):
            h = np.einsum(keep, sym)
            assert np.array_equal(h, h.conj().T)
            want = -np.trace(h @ scipy.linalg.logm(np.einsum(keep, marg)))
            assert abs(want.imag) < 1e-12
            assert abs(got - want.real) < 1e-10

    def test_cli_check_evaluates_a_noncommuting_state(self, tmp_path):
        wa, wb, state = noncommuting_setup()
        files = []
        for name, m in (("rho", state.rho.matrix), ("wa", wa.matrix), ("wb", wb.matrix)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(matrix_to_dict(m)))
            files.append(str(path))
        result = CliRunner().invoke(cli_main, ["check", *files])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == report_to_dict(check_subadditivity(wa, wb, state))


def noncommuting_setup():
    """Two random 2x2 weights and a random 4x4 state that commutes with neither."""
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    return random_weight(2, rng), random_weight(2, rng), BipartiteState(rho, 2, 2)


def frame_setup(seed):
    """A full-rank state and two weights, all diagonal in one random product frame (the commuting family)."""
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
    u = np.kron(ua, ub)
    p = rng.dirichlet(np.ones(4))
    rho = DensityMatrix((u * p) @ u.conj().T)
    wa = WeightMatrix((ua * rng.uniform(0.05, 2.0, 2)) @ ua.conj().T)
    wb = WeightMatrix((ub * rng.uniform(0.05, 2.0, 2)) @ ub.conj().T)
    return wa, wb, BipartiteState(rho, 2, 2)


class TestWeightScaling:
    @pytest.mark.parametrize("seed", range(20))
    def test_entropies_scale_linearly_with_one_weight(self, seed):
        wa, wb, state = frame_setup(seed)
        wab = WeightMatrix(np.kron(wa.matrix, wb.matrix))
        base = check_subadditivity(wa, wb, state)
        for c in (1e-6, 1e9):
            # c times an exactly Hermitian matrix is exactly Hermitian
            joint, want = weighted_entropy(WeightMatrix(c * wab.matrix), state.rho), c * base.s_ab
            assert abs(joint - want) <= 1e-12 * abs(want)
            for rep in (check_subadditivity(WeightMatrix(c * wa.matrix), wb, state),
                        check_subadditivity(wa, WeightMatrix(c * wb.matrix), state)):
                for k in ("s_ab", "s_a", "s_b"):
                    want = c * getattr(base, k)
                    assert abs(getattr(rep, k) - want) <= 1e-12 * abs(want), (c, k)


class TestMutualInformation:
    def test_worked_example(self):
        state, wa, wb = worked_setup()
        mi = check_subadditivity(wa, wb, state).gap
        assert abs(mi - 0.0728) < 5e-4
        assert abs(mi - 0.07280126337634046) < 1e-12

    def test_product_states_have_zero_gap(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            ra = random_density(2, rng)
            rb = random_density(3, rng)
            rho = DensityMatrix(np.kron(ra.matrix, rb.matrix))
            state = BipartiteState(rho, 2, 3)
            mi = check_subadditivity(random_weight(2, rng), random_weight(3, rng), state).gap
            assert abs(mi) < 1e-9

    def test_identity_weights_give_classical_mi(self):
        # diagonal state: weighted MI at identity weights is the classical MI
        # of the 2x2 joint distribution [[p1, p2], [p3, p4]]
        rng = np.random.default_rng(44)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            state = embed_ququart(*p)
            ident = WeightMatrix(np.eye(2))
            mi = check_subadditivity(ident, ident, state).gap
            joint = p.reshape(2, 2)
            pa = joint.sum(axis=1)
            pb = joint.sum(axis=0)
            classical = sum(
                joint[i, j] * math.log(joint[i, j] / (pa[i] * pb[j]))
                for i in range(2)
                for j in range(2)
                if joint[i, j] > 1e-12
            )
            assert abs(mi - classical) < 1e-10


class TestClosedForm:
    def test_worked_example(self):
        val = qutrit_mutual_information_closed_form(0.1, 0.1, *EXAMPLE_WEIGHTS)
        assert abs(val - 0.0728) < 5e-4

    def test_expression_against_direct_formula(self):
        p1, p2 = 0.1, 0.1
        f1, f2, c1, c2 = EXAMPLE_WEIGHTS
        p3 = 1 - p1 - p2
        expected = -(
            f1 * c1 * p1 * math.log((p1 + p2) * (p1 + p3) / p1)
            + f1 * c2 * p2 * math.log(p1 + p2)
            + f2 * c1 * p3 * math.log(p1 + p3)
        )
        assert abs(qutrit_mutual_information_closed_form(p1, p2, f1, f2, c1, c2) - expected) < 1e-15

    def test_agrees_with_matrix_path(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            p1, p2, p3 = rng.dirichlet((1.0, 1.0, 1.0))
            f1, f2, c1, c2 = rng.uniform(0.05, 2.0, size=4)
            closed = qutrit_mutual_information_closed_form(p1, p2, f1, f2, c1, c2)
            state = embed_ququart(p1, p2, p3, 0.0)
            general = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state).gap
            assert abs(closed - general) < 1e-10

    def test_channel_output_state_gives_zero(self):
        # p2 = 0 zeroes every term
        assert qutrit_mutual_information_closed_form(1 / 9, 0.0, *EXAMPLE_WEIGHTS) == 0.0

    def test_support_edge_matches_matrix_path(self):
        # a probability at or below 1e-12 still multiplies the log of a reduced
        # eigenvalue on the matrix path; the closed form keeps that term too
        f1, f2, c1, c2 = EXAMPLE_WEIGHTS
        for p1, p2 in [(5e-13, 0.3), (0.3, 5e-13), (0.6, 0.4 - 5e-13)]:
            closed = qutrit_mutual_information_closed_form(p1, p2, f1, f2, c1, c2)
            state = embed_ququart(p1, p2, 1.0 - p1 - p2, 0.0)
            general = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state).gap
            assert abs(closed - general) < 1e-15

    def test_p1_zero_convention(self):
        f1, f2, c1, c2 = EXAMPLE_WEIGHTS
        val = qutrit_mutual_information_closed_form(0.0, 0.3, f1, f2, c1, c2)
        expected = -(f1 * c2 * 0.3 * math.log(0.3) + f2 * c1 * 0.7 * math.log(0.7))
        assert abs(val - expected) < 1e-14

    def test_identity_weights_match_classical_mi(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p1, p2, p3 = rng.dirichlet((1.0, 1.0, 1.0))
            val = qutrit_mutual_information_closed_form(p1, p2, 1.0, 1.0, 1.0, 1.0)
            joint = np.array([[p1, p2], [p3, 0.0]])
            pa = joint.sum(axis=1)
            pb = joint.sum(axis=0)
            classical = sum(
                joint[i, j] * math.log(joint[i, j] / (pa[i] * pb[j]))
                for i in range(2)
                for j in range(2)
                if joint[i, j] > 1e-12
            )
            assert abs(val - classical) < 1e-12

    def test_broadcasts(self):
        p1 = np.array([0.1, 0.2, 0.3])
        out = qutrit_mutual_information_closed_form(p1, 0.1, *EXAMPLE_WEIGHTS)
        assert out.shape == (3,)
        assert abs(out[0] - qutrit_mutual_information_closed_form(0.1, 0.1, *EXAMPLE_WEIGHTS)) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidSimplexError):
            qutrit_mutual_information_closed_form(0.7, 0.4, *EXAMPLE_WEIGHTS)
        with pytest.raises(ValidationError):
            qutrit_mutual_information_closed_form(0.1, 0.1, -0.5, 0.25, 1 / 3, 2 / 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(6))
    def test_rejects_non_finite_inputs(self, bad, position):
        good = [*EXAMPLE_PROBS, *EXAMPLE_WEIGHTS]
        error = InvalidSimplexError if position < 2 else ValidationError
        # alone, and as one bad cell among good ones in an array call
        for value in (bad, np.array([good[position], bad])):
            args = good.copy()
            args[position] = value
            with pytest.raises(error):
                qutrit_mutual_information_closed_form(*args)

    @given(
        st.floats(0.001, 0.998),
        st.floats(0.001, 0.998),
        st.floats(0.05, 2.0),
        st.floats(0.05, 2.0),
        st.floats(0.05, 2.0),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_matches_matrix_path(self, p1, p2, f1, f2, c1, c2):
        if p1 + p2 >= 0.999:
            return
        closed = qutrit_mutual_information_closed_form(p1, p2, f1, f2, c1, c2)
        state = embed_ququart(p1, p2, 1.0 - p1 - p2, 0.0)
        general = check_subadditivity(diag_weight(f1, f2), diag_weight(c1, c2), state).gap
        assert abs(closed - general) < 1e-10


def kernel_entropies(x, rho, leak_tol=1e-10):
    """The subsystem kernel's entropies, raising as the report engine does when the leak the kernel
    returns is beyond noise at ``leak_tol``."""
    entropy, leak = _subsystem_entropy(x, rho)
    if not _within_noise(leak, 1.0, leak_tol):
        raise ValidationError(f"reduced weighted state has {leak:.3e} of mass outside the support")
    return entropy


def eigh_entropies(x, rho, leak_tol=1e-10):
    """``-Re tr(x ln rho)`` on the support from ``np.linalg.eigh``, item by item, raising as the report
    engine does when ``x`` puts more than ``leak_tol`` off the support."""
    out = []
    for xi, ri in zip(x, rho):
        lams, u = np.linalg.eigh(ri)
        y = u.conj().T @ xi @ u
        off = lams <= SUPPORT_EPS
        if off.any() and np.abs(y[np.ix_(off, off)]).max() > leak_tol:
            raise ValidationError("reduced weighted state has mass outside the support")
        out.append(-sum(y[i, i].real * math.log(lam) for i, lam in enumerate(lams) if lam > SUPPORT_EPS))
    return np.array(out)


def jacobi_entropies(x, rho):
    """``-Re tr(x ln rho)`` on the support, from the cyclic Jacobi oracle's eigenpairs."""
    out = []
    for xi, ri in zip(x, rho):
        lams, v = jacobi_eigh(ri)
        y = np.einsum("ji,jk,ki->i", v.conj(), xi, v).real
        out.append(-sum(t * math.log(lam) for t, lam in zip(y, lams) if lam > SUPPORT_EPS))
    return np.array(out)


def random_x(rng, k):
    """``k`` dense complex 2x2 matrices, not Hermitian, as a reduced weighted state is not."""
    return rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))


def near_diagonal(low, q, low_first):
    """``[[1 - low, q], [conj q, low]]`` or, with ``low_first``, the same with the diagonal swapped."""
    d = [low, 1.0 - low] if low_first else [1.0 - low, low]
    return np.array([[d[0], q], [np.conj(q), d[1]]], dtype=complex)


class TestQubitClosedForm:
    """The closed-form 2x2 subsystem entropy, of one item or a stack, against ``eigh`` and the Jacobi oracle."""

    def assert_agree(self, x, rho):
        got = kernel_entropies(x, rho)
        assert np.abs(got - eigh_entropies(x, rho)).max() <= 1e-14
        assert np.abs(got - jacobi_entropies(x, rho)).max() <= 1e-14

    @pytest.mark.parametrize("r", [0.0, 1e-300, 1e-17, 1e-8])
    def test_near_degenerate_states(self, r):
        # eigenvalues 1/2 -+ r: h = r cos(theta) and q = r sin(theta) e^(i phi) as drawn, then
        # h = 0 and q = 0 exactly, which the q == 0 rule serves
        rng = np.random.default_rng(5)
        theta, phi = rng.uniform(0, np.pi, 200), rng.uniform(0, 2 * np.pi, 200)
        h = np.concatenate([r * np.cos(theta), [0.0, r, -r]])
        q = np.concatenate([r * np.sin(theta) * np.exp(1j * phi), [r, 0.0, 0.0]])
        rho = np.zeros((len(h), 2, 2), dtype=complex)
        rho[:, 0, 0], rho[:, 1, 1], rho[:, 0, 1], rho[:, 1, 0] = 0.5 + h, 0.5 - h, q, q.conj()
        self.assert_agree(random_x(rng, len(h)), rho)

    def test_smallest_eigenvalue_at_the_support_edge(self):
        # near-diagonal frames, where the exact smallest eigenvalue is the diagonal entry itself
        # (|q|^2 is far below its last bit), so the closed form must put it on the right side of the
        # 1e-12 threshold; then dense frames for eigenvalues far below the threshold
        rng = np.random.default_rng(6)
        edge = [0.0, 1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), 5e-324]
        rho = [near_diagonal(low, q, first) for low in edge
               for q in (0.0, 1e-170, 1e-20 * np.exp(0.7j)) for first in (False, True)]
        exact = list(np.repeat(edge, 6))
        for low in (0.0, 5e-324):
            for _ in range(5):
                u = haar_unitary(2, rng)
                m = (u * [low, 1.0 - low]) @ u.conj().T
                rho.append(0.5 * (m + m.conj().T))
                exact.append(low)
        rho, exact = np.array(rho), np.array(exact)
        # x = W rho, as for a product state, puts almost no mass off the support
        x = np.stack([random_weight(2, rng).matrix for _ in rho]) @ rho
        got = kernel_entropies(x, rho)
        assert np.abs(got - jacobi_entropies(x, rho)).max() <= 1e-14
        # each item alone, as one check evaluates it, has the stacked bits
        alone = np.array([kernel_entropies(xi, ri) for xi, ri in zip(x, rho)])
        assert alone.tobytes() == got.tobytes()
        # LAPACK can miss such an eigenvalue by a few ulps, across the threshold: it returned
        # 9.999999999999998e-13 for an exact 1.0000000000000002e-12 with q complex and the small
        # entry last. eigh is the reference wherever it keeps the exact eigenvalue's side
        same_side = (_eigh(rho).eigenvalues[:, 0] <= SUPPORT_EPS) == (exact <= SUPPORT_EPS)
        assert same_side.sum() >= len(rho) - 2  # one case misses here
        assert np.abs(got - eigh_entropies(x, rho))[same_side].max() <= 1e-14

    def test_dense_reduced_states(self):
        rng = np.random.default_rng(7)
        rho = _density_stack(rng, 2000, 4)
        phi = np.stack([np.kron(random_weight(2, rng).matrix, random_weight(2, rng).matrix) for _ in range(50)])
        for keep in ("A", "B"):
            x, kept = partial_trace(np.tile(phi, (40, 1, 1)) @ rho, 2, 2, keep), partial_trace(rho, 2, 2, keep)
            assert np.abs(kernel_entropies(x, kept) - eigh_entropies(x, kept)).max() <= 1e-14

    @pytest.mark.parametrize("leak_tol", [1e-12, 1e-10, 1e-6])
    def test_pure_marginals_leak_on_the_same_inputs(self, leak_tol):
        # leaky_state in a random local frame: rho_A is pure, and phi rho puts mass of about
        # 0.16 eps off its support; eps spans the threshold on a log grid
        rng = np.random.default_rng(8)
        w = np.array([[1.0, 0.4], [0.4, 1.0]])
        weight = np.kron(w, w)
        raised = []
        for eps in np.geomspace(1e-14, 1e-4, 41):
            m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
            m[0, 3] = m[3, 0] = eps
            u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            rho = u @ m @ u.conj().T
            rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian, as every state the engine sees
            rho_a, x = partial_trace(rho, 2, 2, "A"), partial_trace(weight @ rho, 2, 2, "A")
            assert abs(rho_a[0, 1]) > 0.0  # the closed form proper, not its q == 0 rule
            outcomes = []
            # eigh, then the closed form on the one item, as a check takes it
            for entropy in (lambda: eigh_entropies(x[None], rho_a[None], leak_tol)[0],
                            lambda: kernel_entropies(x, rho_a, leak_tol)):
                try:
                    outcomes.append(float(entropy()))
                except ValidationError as exc:
                    assert "outside the support" in str(exc)
                    outcomes.append(None)
            assert (outcomes[0] is None) == (outcomes[1] is None), eps
            raised.append(outcomes[0] is None)
            if outcomes[0] is not None:
                assert abs(outcomes[0] - outcomes[1]) <= 1e-14
        assert any(raised) and not all(raised)

    def test_both_eigenvalues_off_the_support_go_through_eigh(self, monkeypatch):
        calls = []
        eigh = wqent.entropy._eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(wqent.entropy, "_eigh", counting)
        rng = np.random.default_rng(9)
        rho = np.stack([random_density(2, rng).matrix, np.diag([1e-13, 2e-13]).astype(complex),
                        np.array([[1e-13, 2e-14j], [-2e-14j, 1e-13]])])
        x = random_x(rng, 3)
        x[1:] *= 1e-20
        assert kernel_entropies(x[[0]], rho[[0]]).shape == (1,)
        assert _subsystem_entropy(x[0], rho[0])[1] == 0.0  # nothing is off a full-rank support
        assert calls == []
        got = kernel_entropies(x, rho)
        assert calls == [(3, 2, 2)]
        # one such item alone, as a state validated at a tol near 1 can give, takes the fallback too
        assert kernel_entropies(x[1], rho[1]) == got[1]
        assert calls == [(3, 2, 2), (2, 2)]
        assert np.abs(got - eigh_entropies(x, rho)).max() <= 1e-14
        # and the eigh path measures the leak over the whole off-support block, for the engine to judge
        x[2, 0, 1] = 1e-6
        with pytest.raises(ValidationError, match="outside the support"):
            kernel_entropies(x, rho)
