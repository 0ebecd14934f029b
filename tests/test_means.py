import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.generate import random_spd
from gmineq.linalg import hermitian_eig, matrix_power
from gmineq.means import geometric_mean, mean_unitary, t_geometric_mean


def spd_pair(seed, n=3):
    return random_spd(n, 2 * seed), random_spd(n, 2 * seed + 1)


class TestTGeometricMean:
    def test_scalar(self):
        assert geometric_mean(np.array([[4.0]]), np.array([[9.0]]))[0, 0] == pytest.approx(6.0)

    def test_commuting_diagonal(self):
        G = geometric_mean(np.diag([1.0, 4.0]), np.diag([9.0, 16.0]))
        np.testing.assert_allclose(G, np.diag([3.0, 8.0]), atol=1e-12)

    def test_mean_with_identity_is_square_root(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(geometric_mean(A, np.eye(2)), matrix_power(A, 0.5), atol=1e-12)

    def test_endpoints(self):
        A, B = spd_pair(0)
        assert np.abs(t_geometric_mean(A, B, 0.0) - A).max() <= 1e-12
        assert np.abs(t_geometric_mean(A, B, 1.0) - B).max() <= 1e-12

    def test_rejects_psd_boundary(self):
        with pytest.raises(errors.SingularInput):
            geometric_mean(np.diag([1.0, 0.0]), np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            geometric_mean(np.eye(2), np.eye(3))

    def test_rejects_bad_t(self):
        A, B = spd_pair(1)
        with pytest.raises(errors.HypothesisViolation):
            t_geometric_mean(A, B, 1.5)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_at_half(self, seed):
        A, B = spd_pair(seed)
        G1, G2 = geometric_mean(A, B), geometric_mean(B, A)
        assert np.linalg.norm(G1 - G2) <= 1e-10 * max(1.0, np.linalg.norm(G1))

    @given(st.integers(0, 500), st.floats(0.0, 1.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, seed, t, alpha, beta):
        A, B = spd_pair(seed)
        left = t_geometric_mean(alpha * A, beta * B, t)
        right = alpha ** (1 - t) * beta ** t * t_geometric_mean(A, B, t)
        assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(right))

    @given(st.integers(0, 500), st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_congruence_invariance(self, seed, t):
        A, B = spd_pair(seed)
        rng = np.random.default_rng(seed + 10_000)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M += 3 * np.eye(3)  # keep well away from singular
        left = M @ t_geometric_mean(A, B, t) @ M.conj().T
        right = t_geometric_mean(M @ A @ M.conj().T, M @ B @ M.conj().T, t)
        assert np.linalg.norm(left - right) <= 1e-8 * max(1.0, np.linalg.norm(right))

    @given(st.integers(0, 500), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_commuting_case_is_power_product(self, seed, t):
        rng = np.random.default_rng(seed)
        from gmineq.generate import haar_unitary
        from gmineq.linalg import hermitize

        Q = haar_unitary(3, seed)
        a = rng.uniform(0.1, 10.0, 3)
        b = rng.uniform(0.1, 10.0, 3)
        A = hermitize((Q * a) @ Q.conj().T)
        B = hermitize((Q * b) @ Q.conj().T)
        left = t_geometric_mean(A, B, t)
        right = matrix_power(A, 1 - t) @ matrix_power(B, t)
        assert np.linalg.norm(left - right) <= 1e-9 * max(1.0, np.linalg.norm(right))


def geometric_mean_unitary(A, B, s=1.0):
    """(U, F) of `mean_unitary`, from the matrices."""
    return mean_unitary(hermitian_eig(A), hermitian_eig(B), s)


class TestGeometricMeanUnitary:
    def test_equal_inputs_give_identity(self):
        A, _ = spd_pair(3)
        np.testing.assert_allclose(geometric_mean_unitary(A, A)[0], np.eye(3), atol=1e-9)

    def test_scalar(self):
        U, F = geometric_mean_unitary(np.array([[2.0]]), np.array([[5.0]]))
        assert U[0, 0] == pytest.approx(1.0)
        assert (F @ F.conj().T)[0, 0].real == pytest.approx(np.sqrt(10.0))

    def test_seeded_reconstruction(self):
        A, B = spd_pair(42)
        for s in (1.0, 2.5):
            U, F = geometric_mean_unitary(A, B, s)
            assert np.abs(U @ U.conj().T - np.eye(3)).max() <= 1e-9
            recon = matrix_power(A, s / 2.0) @ U @ matrix_power(B, s / 2.0)
            G = geometric_mean(matrix_power(A, s), matrix_power(B, s))
            assert np.linalg.norm(recon - G) <= 1e-9 * np.linalg.norm(G)
            assert np.linalg.norm(F @ F.conj().T - G) <= 1e-9 * np.linalg.norm(G)
