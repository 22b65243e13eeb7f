import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_oracle import jacobi_eigvalsh
from support_oracle import ln_support_two_where
from wqent.errors import DimensionError, NegativeEigenvalueError, NotHermitianError
from wqent.linalg import _ln_support, _xlnx, hermitian_eig, partial_trace, xlogx_matrix
from wqent.states import DensityMatrix


def random_hermitian(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        partial_trace(np.ones((2, 3)), 1, 2, "A")


def test_partial_trace_diagonal_example():
    rho = np.diag([0.1, 0.1, 0.8, 0.0]).astype(complex)
    a = partial_trace(rho, 2, 2, "A")
    b = partial_trace(rho, 2, 2, "B")
    assert np.abs(a - np.diag([0.2, 0.8])).max() < 1e-15
    assert np.abs(b - np.diag([0.9, 0.1])).max() < 1e-15


def test_partial_trace_of_kron_recovers_factors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        m = np.kron(a, b)
        ta = partial_trace(m, 2, 3, "A")
        tb = partial_trace(m, 2, 3, "B")
        assert np.abs(ta - a * np.trace(b)).max() < 1e-12
        assert np.abs(tb - b * np.trace(a)).max() < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_hermitian(6, rng)
        for da, db in [(2, 3), (3, 2)]:
            for keep in ("A", "B"):
                assert abs(np.trace(partial_trace(m, da, db, keep)) - np.trace(m)) < 1e-12


def test_partial_trace_rejects_bad_factorization():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(6), 2, 2, "A")


def test_partial_trace_rejects_unknown_subsystem():
    with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
        partial_trace(np.eye(4), 2, 2, "C")


def test_eig_diagonal_is_sorted_and_exact():
    lams, vecs = hermitian_eig(np.diag([0.8, 0.1, 0.1, 0.0]).astype(complex))
    assert np.array_equal(lams, np.array([0.0, 0.1, 0.1, 0.8]))
    assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12


def test_eig_pauli_x():
    lams, vecs = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.abs(lams - np.array([-1.0, 1.0])).max() < 1e-13
    r = vecs @ np.diag(lams) @ vecs.conj().T
    assert np.abs(r - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_zero_matrix():
    lams, vecs = hermitian_eig(np.zeros((3, 3)))
    assert np.array_equal(lams, np.zeros(3))
    assert np.array_equal(vecs, np.eye(3, dtype=complex))


def test_eig_reconstruction_500_random():
    rng = np.random.default_rng(2024)
    dims = [2, 3, 4, 5, 6]
    for k in range(500):
        dim = dims[k % len(dims)]
        m = random_hermitian(dim, rng, scale=10.0 ** rng.integers(-2, 3))
        lams, vecs = hermitian_eig(m)
        scale = max(1.0, np.abs(m).max())
        recon = (vecs * lams) @ vecs.conj().T
        assert np.abs(recon - m).max() <= 1e-10 * scale
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() <= 1e-12
        assert np.all(np.diff(lams) >= 0.0)


def test_eig_matches_lapack_spectrum():
    # independent oracle: cyclic Jacobi in plain Python on the same matrices
    rng = np.random.default_rng(55)
    for _ in range(50):
        m = random_hermitian(5, rng)
        lams, _ = hermitian_eig(m)
        ref = jacobi_eigvalsh(m)
        assert np.abs(lams - ref).max() < 1e-11


def test_eig_phase_convention_and_determinism():
    rng = np.random.default_rng(42)
    m = random_hermitian(4, rng)
    first = hermitian_eig(m)
    second = hermitian_eig(m.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for col in first.eigenvectors.T:
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_eig_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    m = random_hermitian(dim, rng)
    lams, vecs = hermitian_eig(m)
    recon = (vecs * lams) @ vecs.conj().T
    assert np.abs(recon - m).max() <= 1e-10 * max(1.0, np.abs(m).max())


def test_xlogx_on_support_values():
    out = xlogx_matrix(hermitian_eig(np.diag([0.5, 0.5])))
    expected = 0.5 * np.log(0.5) * np.eye(2)
    assert np.abs(out - expected).max() < 1e-14


def test_xlogx_zero_eigenvalue_contributes_nothing():
    out = xlogx_matrix(hermitian_eig(np.diag([1.0, 0.0])))
    assert np.abs(out).max() < 1e-14


def test_xlogx_tiny_negative_is_noise_but_real_negative_raises():
    # the negative decision belongs to the validating constructor
    out = xlogx_matrix(DensityMatrix(np.diag([1.0, -1e-11])).spectrum)
    assert np.abs(out).max() < 1e-14
    with pytest.raises(NegativeEigenvalueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_xlogx_basis_invariance():
    # f(U rho U^dag) = U f(rho) U^dag
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        rho = (u * p) @ u.conj().T
        lhs = xlogx_matrix(hermitian_eig(rho))
        rhs = u @ xlogx_matrix(hermitian_eig(np.diag(p))) @ u.conj().T
        assert np.abs(lhs - rhs).max() < 1e-10


# the support threshold itself, one ulp either side, signed zeros, the smallest subnormal, NaN
SUPPORT_EDGE = [0.0, -0.0, 1e-12, np.nextafter(1e-12, np.inf), np.nextafter(1e-12, -np.inf),
                5e-324, 1.0, -0.5, np.nan]


@pytest.mark.parametrize("x", [np.array(SUPPORT_EDGE)] + [np.array(v) for v in SUPPORT_EDGE],
                         ids=["vector"] + [f"0d-{v!r}" for v in SUPPORT_EDGE])
def test_ln_support_matches_two_where_formula_bit_for_bit(x):
    got, want = _ln_support(x), ln_support_two_where(x)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert _xlnx(x).tobytes() == (x * want).tobytes()


def masked_log(x):
    """The support log as one masked pass over every input: the form ``_ln_support`` keeps off the support."""
    return np.log(x, out=np.zeros(x.shape), where=x > 1e-12)


ON_SUPPORT = [np.nextafter(1e-12, np.inf), 1e-11, 0.25, 1.0, 3.5, 1e300, np.inf]
STACK = np.random.default_rng(4).random((5, 3)) + 1e-3


def support_cases():
    """``(id, x)`` pairs: each value as a 0-d array and as a numpy scalar, then vectors and ``(k, d)`` stacks,
    wholly on the support (the plain log) or not (the masked pass)."""
    values = SUPPORT_EDGE + [-3.0, -np.inf] + ON_SUPPORT
    yield from ((f"0d-{v!r}", np.array(v)) for v in values)
    yield from ((f"scalar-{v!r}", np.float64(v)) for v in values)
    yield "vector on the support", np.array(ON_SUPPORT)
    yield "vector with every edge", np.array(SUPPORT_EDGE)
    yield "empty", np.empty((0, 3))
    yield "stack on the support", STACK
    for i, v in enumerate([0.0, -0.0, 1e-12, np.nextafter(1e-12, -np.inf), 5e-324, -0.5, np.nan]):
        stack = STACK.copy()
        stack[i % 5, i % 3] = v
        yield f"stack with {v!r}", stack


@pytest.mark.parametrize("x", [x for _, x in support_cases()], ids=[name for name, _ in support_cases()])
def test_ln_support_equals_the_masked_log_on_either_branch(x):
    # a plain log serves inputs wholly above 1e-12 and the masked pass every other: both must give the
    # masked pass's bits, +0.0 off the support (also for -0.0 and NaN) and no RuntimeWarning
    # (the test configuration turns one into an error)
    want = masked_log(x)
    got = np.asarray(_ln_support(x))
    assert got.dtype == np.float64
    assert got.shape == np.shape(x)
    assert got.tobytes() == want.tobytes()
