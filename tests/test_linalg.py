import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.generate import haar_unitary, random_spd
from gmineq.blocks import InstanceSet
from gmineq.chains import condition_max
from gmineq.linalg import hermitian_eig, matrix_power, psd_sv, spd_eig


def random_hermitian(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (G + G.conj().T)


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)

    def test_symmetry_forced(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0])
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(np.abs(eig.vectors), np.abs(expected), atol=1e-12)

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(4)
        H = random_hermitian(4, rng)
        eig = hermitian_eig(H)
        scale = 1.0 + np.abs(H).max()
        assert np.abs(eig.reconstruct() - H).max() <= 1e-12 * scale
        assert np.abs(eig.vectors @ eig.vectors.conj().T - np.eye(4)).max() <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalues_invariant_under_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian(3, rng)
        U = haar_unitary(3, rng)
        w1 = hermitian_eig(H).eigenvalues
        w2 = hermitian_eig(0.5 * (U @ H @ U.conj().T + (U @ H @ U.conj().T).conj().T)).eigenvalues
        np.testing.assert_allclose(w1, w2, atol=1e-10 * (1 + np.abs(w1).max()))


class TestMatrixPower:
    def test_diagonal_sqrt(self):
        np.testing.assert_allclose(matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13)

    def test_identity_exponent(self):
        rng = np.random.default_rng(0)
        H = random_spd(3, rng)
        assert np.abs(matrix_power(H, 1.0) - H).max() <= 1e-14 * np.abs(H).max()

    def test_closed_form_2x2(self):
        # eigenbasis (1, +-1)/sqrt(2); sqrt eigenvalues sqrt(3), 1
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        root3 = np.sqrt(3.0)
        expected = np.array(
            [[(root3 + 1) / 2, (root3 - 1) / 2], [(root3 - 1) / 2, (root3 + 1) / 2]]
        )
        np.testing.assert_allclose(matrix_power(H, 0.5), expected, atol=1e-13)

    def test_integer_power_matches_repeated_multiplication(self):
        rng = np.random.default_rng(7)
        H = random_spd(3, rng)
        direct = H @ H @ H
        np.testing.assert_allclose(matrix_power(H, 3), direct, rtol=1e-10)

    def test_negative_power_requires_pd(self):
        with pytest.raises(errors.SingularForNegativePower):
            matrix_power(np.diag([1.0, 0.0]), -1.0)

    def test_zeroing_rule(self):
        """Only round-off negatives (within 1e-12 lambda_max) become 0; a
        tiny positive eigenvalue keeps its value, and a PSD matrix with a
        larger negative is refused."""
        np.testing.assert_array_equal(psd_sv(np.diag([1.0, 1e-14, -1e-13]), 0.5),
                                      [1.0, 1e-7, 0.0])
        np.testing.assert_array_equal(np.diag(matrix_power(np.diag([1.0, 1e-14]), 0.5)),
                                      [1.0, 1e-7])
        with pytest.raises(errors.NotPositiveSemidefinite):
            psd_sv(np.diag([1.0, -1e-11]), 1.0)

    @given(st.integers(0, 500), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_power_composition(self, seed, x, y):
        rng = np.random.default_rng(seed)
        H = random_spd(3, rng)
        left = matrix_power(matrix_power(H, x), y)
        right = matrix_power(H, x * y)
        assert np.linalg.norm(left - right) <= 1e-9 * max(1.0, np.linalg.norm(right))


def _condition(H) -> float:
    """Condition number of H through the instance gate: a single pair (H, H)."""
    return condition_max(InstanceSet(m=1, n=H.shape[0], A=[H], B=[H]))


class TestDefiniteness:
    def test_identity(self):
        np.testing.assert_array_equal(spd_eig(np.eye(3)).eigenvalues, np.ones(3))

    def test_semidefinite_boundary(self):
        with pytest.raises(errors.SingularInput):
            spd_eig(np.diag([1.0, 0.0]))

    def test_indefinite(self):
        with pytest.raises(errors.SingularInput):
            spd_eig(np.diag([1.0, -1.0]))

    def test_condition_identity(self):
        assert _condition(np.eye(3)) == pytest.approx(1.0)

    def test_condition_diag(self):
        assert _condition(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_condition_bounded_by_spectrum_law(self):
        # spectrum drawn in [0.1, 10] bounds the ratio by 100
        for seed in range(20):
            H = random_spd(4, np.random.default_rng(seed))
            assert 1.0 <= _condition(H) <= 100.0 + 1e-6
