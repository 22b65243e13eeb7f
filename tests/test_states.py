import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqent.errors import (
    DimensionError,
    InvalidSimplexError,
    NegativeEigenvalueError,
    NotHermitianError,
    ValidationError,
)
from wqent.channel import Projector
from wqent.linalg import _hermitize, hermitian_eig
from wqent.states import (
    DEFAULT_SCALE_RANGE,
    BipartiteState,
    DensityMatrix,
    QutritDiagonal,
    WeightMatrix,
    embed_ququart,
    embed_qutrit,
    haar_unitary,
    random_density,
    random_weight,
    _gaussian,
    _scale_draws,
    _unitary_stack,
)


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.diag([0.1, 0.1, 0.8, 0.0]))
        assert rho.dim == 4

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NotHermitianError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(NegativeEigenvalueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionError, match="expected a square matrix"):
            DensityMatrix(np.zeros((2, 2, 2)))

    def test_reprs_name_the_dims(self):
        assert repr(DensityMatrix(np.eye(4) / 4)) == "DensityMatrix(dim=4)"
        assert repr(WeightMatrix(np.diag([1.0, 0.0]))) == "WeightMatrix(dim=2, degenerate=True)"
        assert repr(Projector(np.diag([1.0, 0.0, 1.0]))) == "Projector(dim=3, rank=2)"

    def test_never_normalizes(self):
        # twice a valid state must fail, not come back rescaled
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.0, 1.0]))

    def test_matrix_is_frozen(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.9

    def test_tolerance_is_respected(self):
        m = np.diag([0.5 + 2e-11, 0.5])
        DensityMatrix(m)
        with pytest.raises(ValidationError):
            DensityMatrix(m, tol=1e-12)

    def test_stores_hermitian_part_and_validated_spectrum(self):
        exact = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        assert np.array_equal(DensityMatrix(exact).matrix, exact)
        skew = exact.copy()
        skew[0, 1] += 1e-8
        rho = DensityMatrix(skew, tol=1e-6)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.abs(rho.matrix - exact).max() <= 1e-8
        lams, vecs = rho.spectrum
        assert np.abs((vecs * lams) @ vecs.conj().T - rho.matrix).max() < 1e-14
        with pytest.raises(ValueError):
            lams[0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [DensityMatrix, WeightMatrix, Projector, hermitian_eig],
    ids=["DensityMatrix", "WeightMatrix", "Projector", "hermitian_eig"],
)
def test_non_finite_entries_are_rejected(build, bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        build(m)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8, 1.0, 2.0])
@pytest.mark.parametrize(
    "build", [DensityMatrix, WeightMatrix, Projector, hermitian_eig],
    ids=["DensityMatrix", "WeightMatrix", "Projector", "hermitian_eig"],
)
def test_tolerance_must_be_positive_and_finite(build, tol):
    # a NaN tolerance would switch every "> tol" check off, and at 1 or more the zero matrix
    # passed as a state whose every report field read 0 with both verdicts true
    with pytest.raises(ValidationError, match="positive and finite"):
        build(np.diag([1.0, 0.0]), tol=tol)


class TestLargeEntries:
    """Finite entries above about 9e307, where ``a + a^dagger`` would overflow; its halves do not."""

    def test_hermitian_part_is_finite_and_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        a = 1.7e308 * rng.uniform(-1.0, 1.0, (6, 6)) + 1.7e308j * rng.uniform(-1.0, 1.0, (6, 6))
        h = _hermitize(a)
        assert np.isfinite(h).all()
        assert np.array_equal(h, h.conj().T)

    def test_state_with_large_off_diagonal_is_not_psd(self):
        # its eigenvalues are 0.5 -+ 1e308
        with pytest.raises(NegativeEigenvalueError, match=r"min eigenvalue -1\.000e\+308"):
            DensityMatrix([[0.5, 1e308], [1e308, 0.5]])

    def test_weight_keeps_its_input_and_a_finite_spectrum(self):
        m = np.diag([1e308, 1.0])
        assert np.array_equal(WeightMatrix(m).matrix, m)
        assert np.array_equal(hermitian_eig(m).eigenvalues, [1.0, 1e308])

    def test_deviation_too_large_for_a_float_is_not_hermitian(self):
        # the test suite turns a RuntimeWarning into an error, so none escapes either
        with pytest.raises(NotHermitianError, match="deviates from Hermitian by inf"):
            DensityMatrix([[0.5, 1e308], [-1e308, 0.5]])

    def test_entries_near_the_float_maximum_keep_their_deviation(self):
        # |a| of such an entry overflows; its parts do not, so a deviation of 0.2 times the
        # entries is still no noise
        a = np.array([[0.0, 1.3e308 + 1.3e308j], [1.7e308 - 1.3e308j, 0.0]])
        with pytest.raises(NotHermitianError, match="deviates from Hermitian by 4.000e\\+307"):
            WeightMatrix(a)


class TestHermiticityScale:
    """The Hermiticity check judges ``max|a - a^dagger|`` against ``tol`` times the largest entry, or 1."""

    def test_rank_one_weights_of_large_norm_construct(self):
        # numpy's complex outer product is Hermitian up to rounding only: at 1e7 it deviates by
        # up to about 1e-9, and an absolute check rejected 189 of these 200
        for scale in (1e5, 1e6, 1e7):
            rng = np.random.default_rng(1)
            for _ in range(200):
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v /= np.linalg.norm(v)
                WeightMatrix(scale * np.outer(v, v.conj()))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6, 1e12])
    def test_floor_is_tol_times_the_largest_entry_or_1(self, scale):
        # at or below unit scale the floor is tol itself, as it was for every scale
        floor = 1e-10 * max(1.0, scale)
        for dev, ok in ((0.9 * floor, True), (1.1 * floor, False)):
            m = np.diag([scale, scale]).astype(complex)
            m[0, 1] = dev
            if ok:
                WeightMatrix(m)
            else:
                with pytest.raises(NotHermitianError, match="deviates from Hermitian"):
                    WeightMatrix(m)


class TestWeightMatrix:
    def test_relaxed_flags_degenerate(self):
        w = WeightMatrix(np.diag([1.0, 0.0]))
        assert w.degenerate
        w2 = WeightMatrix(np.diag([1.0, 0.5]))
        assert not w2.degenerate

    def test_relaxed_still_rejects_negative(self):
        with pytest.raises(ValidationError):
            WeightMatrix(np.diag([1.0, -0.1]))

    def test_one_psd_rule_as_for_states(self):
        # a zero eigenvalue is accepted and flagged; eigenvalues in [-tol, 0) pass as noise;
        # below -tol the weight fails with the state's message, naming the weight
        assert WeightMatrix(np.diag([1.0, 0.0])).degenerate
        assert WeightMatrix(np.diag([1.0, 5e-11])).degenerate
        assert not WeightMatrix(np.diag([1.0, 2e-10])).degenerate
        assert WeightMatrix(np.diag([1.0, -1e-8]), tol=1e-6).degenerate
        with pytest.raises(NegativeEigenvalueError) as err:
            WeightMatrix(np.diag([1.0, -1e-8]))
        assert str(err.value) == "weight is not positive semidefinite (min eigenvalue -1.000e-08)"

    def test_semidefinite_singular_weights_of_large_norm_pass(self):
        # the eigensolver's rounding grows with the norm: this weight reads a smallest eigenvalue of
        # -3.6e-10, and an absolute floor of -1e-10 rejected 73 of 200 random rank-1 weights at 1e6
        WeightMatrix(np.full((4, 4), 1e6))
        rng = np.random.default_rng(1)
        for scale in (1e6, 1e7, 1e12):
            for _ in range(100):
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v /= np.linalg.norm(v)
                WeightMatrix(_hermitize(scale * np.outer(v, v.conj())))

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_floor_scales_with_the_largest_eigenvalue(self, scale):
        # below -tol times the largest eigenvalue a weight fails; above it the eigenvalue is noise
        assert WeightMatrix(np.diag([scale, 0.0, -0.5e-10 * scale])).degenerate
        with pytest.raises(NegativeEigenvalueError, match="not positive semidefinite"):
            WeightMatrix(np.diag([scale, 0.0, -2e-10 * scale]))
        # the caller's tol sets the floor the same way
        assert WeightMatrix(np.diag([scale, 0.0, -1e-9 * scale]), tol=1e-8).degenerate
        # a negative eigenvalue larger than the positive part is no noise at any tol below 1
        with pytest.raises(NegativeEigenvalueError, match="not positive semidefinite"):
            WeightMatrix(np.diag([scale, -2.0 * scale]), tol=0.9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            WeightMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestBipartiteState:
    def test_dims_must_factor(self):
        rho = DensityMatrix(np.eye(4) / 4)
        BipartiteState(rho, 2, 2)
        with pytest.raises(DimensionError):
            BipartiteState(rho, 2, 3)

    def test_dims_must_be_at_least_two(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValidationError):
            BipartiteState(rho, 1, 4)


class TestQutritDiagonal:
    def test_rejects_negative(self):
        with pytest.raises(InvalidSimplexError):
            QutritDiagonal(-0.1, 0.5, 0.6)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSimplexError):
            QutritDiagonal(0.3, 0.3, 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # each position, since min() over a tuple holding NaN depends on where the NaN sits
        for ps in ((bad, 0.5, 0.5), (0.5, bad, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(InvalidSimplexError):
                QutritDiagonal(*ps)

    @given(st.floats(0.01, 0.98), st.floats(0.01, 0.98))
    @settings(max_examples=50, deadline=None)
    def test_valid_triples_embed(self, p1, p2):
        if p1 + p2 >= 1.0:
            return
        q = QutritDiagonal(p1, p2, 1.0 - p1 - p2)
        state = embed_qutrit(q)
        assert state.dim == 4
        assert abs(np.trace(state.rho.matrix) - 1.0) < 1e-12


def test_embed_qutrit_layout():
    state = embed_qutrit(QutritDiagonal(0.1, 0.1, 0.8))
    expected = np.diag([0.1, 0.1, 0.8, 0.0]).astype(complex)
    assert np.array_equal(state.rho.matrix, expected)
    assert (state.dim_a, state.dim_b) == (2, 2)


def test_embed_ququart_general():
    state = embed_ququart(0.4, 0.3, 0.2, 0.1)
    assert np.array_equal(np.diag(state.rho.matrix).real, [0.4, 0.3, 0.2, 0.1])
    with pytest.raises(InvalidSimplexError):
        embed_ququart(0.5, 0.5, 0.5, -0.5)


class TestSamplers:
    def test_random_density_is_valid_and_deterministic(self):
        a = random_density(4, 9)
        b = random_density(4, 9)
        assert np.array_equal(a.matrix, b.matrix)
        # constructor would have raised otherwise; double-check the basics
        assert abs(np.trace(a.matrix) - 1.0) < 1e-12

    def test_random_weight_spectrum_range(self):
        w = random_weight(4, 77)
        lams = hermitian_eig(w.matrix).eigenvalues
        lo, hi = DEFAULT_SCALE_RANGE
        assert lams.min() > lo - 1e-10
        assert lams.max() < hi + 1e-10
        assert not w.degenerate

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(5, 31)
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12

    def test_generator_can_be_shared(self):
        rng = np.random.default_rng(0)
        a = random_density(3, rng)
        b = random_density(3, rng)
        assert np.abs(a.matrix - b.matrix).max() > 1e-3

    def test_seeded_draws_follow_the_one_item_recipe(self):
        # the public samplers are the n = 1 case of the batched ones; a seeded
        # draw equals, bit for bit, the recipe written out for one item
        g = np.random.default_rng(12)
        z = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        w = z @ z.conj().T
        density = w / np.trace(w).real
        u = g.uniform(0.05, 2.0, size=3)
        z = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        weight = (v * u) @ v.conj().T
        z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        # at dim 2 the phase-fixed QR factor is written out from the normalised first column,
        # each entry a one-item array, as in the batched sampler at n = 1
        u2 = g.uniform(0.05, 2.0, size=2)
        frames = []
        for _ in range(2):
            z = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
            a, b, c, d = z[0, :1], z[1, :1], z[0, 1:], z[1, 1:]
            norm = np.hypot(np.abs(a), np.abs(b))
            a, b = a / norm, b / norm
            w = a * d - b * c
            w = w / np.abs(w)
            frames.append(np.array([[a, -b.conj() * w], [b, a.conj() * w]])[..., 0])
        weight2 = (frames[0] * u2) @ frames[0].conj().T

        g = np.random.default_rng(12)
        assert np.array_equal(random_density(3, g).matrix, 0.5 * (density + density.conj().T))
        assert np.array_equal(random_weight(3, g).matrix, 0.5 * (weight + weight.conj().T))
        assert np.array_equal(haar_unitary(4, g), unitary)
        assert np.array_equal(random_weight(2, g).matrix, 0.5 * (weight2 + weight2.conj().T))
        assert np.array_equal(haar_unitary(2, g), frames[1])

    def test_dim_two_frames_equal_the_phase_fixed_qr_factor(self):
        # 1e4 seeded draws. The second column's phase is that of det z, which both constructions
        # carry with a relative error of about eps times the condition number of z, so they agree
        # within 4 eps cond(z): within 1e-14 for well-conditioned draws, and about 2.5e-14 at
        # worst over these draws, where QR itself is the farther from the exact factor
        g_frame, g_qr = np.random.default_rng(2024), np.random.default_rng(2024)
        got = _unitary_stack(g_frame, 10_000, 2)
        z = _gaussian(g_qr, (10_000, 2, 2))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        want = q * (d / np.abs(d))[:, None, :]
        diff = np.abs(got - want).max(axis=(1, 2))
        cond = np.linalg.cond(z)
        assert (diff <= 4 * np.finfo(float).eps * cond).all()
        assert diff[cond <= 10].max() <= 1e-14
        # unitary as QR's factor is, which read 1.3e-15 here
        assert np.abs(got.conj().swapaxes(1, 2) @ got - np.eye(2)).max() <= 2e-15
        # both consumed the same draws
        assert g_frame.random() == g_qr.random()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 4), (1001, 4), (20_000, 2)])
    def test_scale_draws_match_generator_uniform(self, seed, shape):
        g_new, g_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _scale_draws(g_new, shape)
        want = g_ref.uniform(*DEFAULT_SCALE_RANGE, size=shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # both consumed the same number of draws
        assert g_new.random() == g_ref.random()

    def test_dim_validation(self):
        with pytest.raises(DimensionError):
            random_density(1, 0)
        with pytest.raises(DimensionError):
            random_weight(1, 0)
