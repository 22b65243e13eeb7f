import numpy as np
import pytest

from wqent.errors import ChannelUndefinedError, DimensionError, NotHermitianError, ValidationError
from wqent.states import (
    BipartiteState, DensityMatrix, QutritDiagonal, WeightMatrix, embed_qutrit, haar_unitary, random_density,
)
from wqent.channel import Projector, apply_projective_channel, basis_projector, channel_then_check


def diag_weight(x1, x2):
    return WeightMatrix(np.diag([x1, x2]).astype(complex))


class TestProjector:
    def test_basis_projector_layout(self):
        p = basis_projector(4, (0, 2))
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        assert p.rank == 2

    def test_identity_and_rank(self):
        assert Projector(np.eye(3)).rank == 3
        assert basis_projector(5, ()).rank == 0

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError, match="idempotent"):
            Projector(np.diag([0.5, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m", [np.diag([1e308, 0.0]), [[1e308, 1e308], [1e308, -1e308]]])
    def test_rejects_entries_whose_square_overflows(self, m):
        # P^2 - P has inf and NaN parts; the test suite turns a RuntimeWarning into an error
        with pytest.raises(ValidationError, match="not idempotent"):
            Projector(m)

    def test_rank_one_from_vector(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        p = Projector(np.outer(v, v))
        assert p.rank == 1

    def test_rank_counts_a_projector_scaled_within_tol(self):
        # entries of P^2 - P stay below 1e-10 while the one eigenvalue, 1 - 3e-10, lies 3e-10 from 1
        u = np.ones(4) / 2
        assert Projector((1 - 3e-10) * np.outer(u, u)).rank == 1

    def test_basis_projector_validates_indices(self):
        with pytest.raises(ValidationError):
            basis_projector(3, (0, 0))
        with pytest.raises(ValidationError):
            basis_projector(3, (3,))


class TestApplyChannel:
    def test_worked_example_output(self):
        state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
        p = basis_projector(4, (0, 2))
        out = apply_projective_channel(p, state.rho)
        expected = np.array([1 / 9, 0.0, 8 / 9, 0.0])
        assert np.abs(np.diag(out.matrix).real - expected).max() <= 1e-15
        assert np.abs(out.matrix - np.diag(np.diag(out.matrix))).max() == 0.0

    def test_identity_projector_is_identity_channel(self):
        state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
        out = apply_projective_channel(Projector(np.eye(4)), state.rho)
        assert np.array_equal(out.matrix, state.rho.matrix)

    def test_output_lives_in_projector_range(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density(4, rng)
            p = basis_projector(4, (1, 3))
            out = apply_projective_channel(p, rho)
            comp = np.eye(4) - p.matrix
            assert np.abs(comp @ out.matrix).max() < 1e-12
            assert np.abs(out.matrix @ comp).max() < 1e-12
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_output_keeps_the_input_tol(self):
        # a -1e-8 eigenvalue is noise at tol=1e-6; the identity channel must not re-judge it at 1e-10
        rho = DensityMatrix(np.diag([0.4 + 1e-8, 0.35, 0.25, -1e-8]), tol=1e-6)
        out = apply_projective_channel(Projector(np.eye(4)), rho)
        assert out.tol == rho.tol
        wa, wb = diag_weight(0.75, 0.25), diag_weight(1 / 3, 2 / 3)
        _, rep = channel_then_check(Projector(np.eye(4)), wa, wb, BipartiteState(rho, 2, 2))
        assert rep.tolerance == 1e-6

    def test_vanishing_overlap_is_undefined(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]))
        p = basis_projector(2, (0,))
        with pytest.raises(ChannelUndefinedError, match="overlap"):
            apply_projective_channel(p, rho)

    def test_an_output_that_fails_validation_names_the_channel_output_and_its_overlap(self):
        # (|v><v| + |u0><u0|) / 2 with v = sqrt(1 - 1e-8) u0 + sqrt(1e-8) u1, and P onto u1 and u2, in a
        # Haar frame: the overlap is 5e-9, and dividing by it lifts the rounding of P rho P over the tolerance
        u = haar_unitary(4, 2).T
        v = np.sqrt(1 - 1e-8) * u[0] + np.sqrt(1e-8) * u[1]
        rho = DensityMatrix((np.outer(v, v.conj()) + np.outer(u[0], u[0].conj())) / 2)
        p = Projector(np.outer(u[1], u[1].conj()) + np.outer(u[2], u[2].conj()))
        with pytest.raises(NotHermitianError,
                           match=r"^channel output at overlap trace 5\.000e-09 deviates from Hermitian by 2\.457e-09$"):
            apply_projective_channel(p, rho)

    def test_dim_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(DimensionError):
            apply_projective_channel(basis_projector(4, (0,)), rho)


class TestChannelThenCheck:
    def test_worked_example_transformed_report(self):
        state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
        wa = diag_weight(0.75, 0.25)
        wb = diag_weight(1 / 3, 2 / 3)
        rho_out, rep = channel_then_check(basis_projector(4, (0, 2)), wa, wb, state)
        assert np.abs(np.diag(rho_out.matrix).real - [1 / 9, 0, 8 / 9, 0]).max() <= 1e-15
        # the projected family has p2' = 0, so the gap closes exactly
        assert abs(rep.gap) < 1e-10
        assert rep.subadditivity_holds
        assert rep.condition_holds

    def test_projection_can_create_violating_state(self):
        # the channel output need not satisfy the trace condition when the
        # weights fail the sign test; the report just records it
        state = embed_qutrit(QutritDiagonal(0.2, 0.5, 0.3))
        wa = diag_weight(0.2, 1.8)
        wb = diag_weight(0.3, 1.7)
        _, rep = channel_then_check(Projector(np.eye(4)), wa, wb, state)
        assert rep.condition_gap < 0.0
