import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.generate import haar_unitary, random_spd
from gmineq.linalg import (
    condition_number,
    hermitian_eig,
    is_positive_definite,
    matrix_abs,
    matrix_power,
    polar_unitary,
    psd_sv,
)


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


class TestMatrixAbs:
    def test_diagonal(self):
        np.testing.assert_allclose(matrix_abs(np.diag([-3.0, 2.0])), np.diag([3.0, 2.0]), atol=1e-13)

    def test_unitary_gives_identity(self):
        U = haar_unitary(4, np.random.default_rng(1))
        np.testing.assert_allclose(matrix_abs(U), np.eye(4), atol=1e-12)

    def test_nilpotent(self):
        np.testing.assert_allclose(
            matrix_abs(np.array([[0.0, 2.0], [0.0, 0.0]])), np.diag([0.0, 2.0]), atol=1e-13
        )

    def test_same_singular_values_as_input(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sv_m = np.linalg.svd(M, compute_uv=False)
        sv_abs = np.linalg.svd(matrix_abs(M), compute_uv=False)
        np.testing.assert_allclose(sv_m, sv_abs, atol=1e-10 * (1 + sv_m[0]))


class TestPolarUnitary:
    def test_positive_definite_gives_identity(self):
        H = random_spd(3, np.random.default_rng(2))
        np.testing.assert_allclose(polar_unitary(H), np.eye(3), atol=1e-11)

    def test_unitary_fixed_point(self):
        U = haar_unitary(3, np.random.default_rng(3))
        np.testing.assert_allclose(polar_unitary(U), U, atol=1e-11)

    def test_forced_example(self):
        M = np.array([[0.0, -2.0], [3.0, 0.0]])
        np.testing.assert_allclose(polar_unitary(M), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-13)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U = polar_unitary(M)
        assert np.abs(U @ U.conj().T - np.eye(4)).max() <= 1e-10
        recon = U @ matrix_abs(M)
        assert np.linalg.norm(recon - M) <= 1e-10 * np.linalg.norm(M)

    def test_singular_input(self):
        with pytest.raises(errors.SingularInput):
            polar_unitary(np.diag([1.0, 0.0]))


class TestDefiniteness:
    def test_identity(self):
        assert is_positive_definite(np.eye(3)).positive_definite

    def test_semidefinite_boundary(self):
        assert not is_positive_definite(np.diag([1.0, 0.0])).positive_definite

    def test_indefinite(self):
        assert not is_positive_definite(np.diag([1.0, -1.0])).positive_definite

    def test_condition_identity(self):
        assert condition_number(np.eye(3)) == pytest.approx(1.0)

    def test_condition_diag(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_condition_bounded_by_spectrum_law(self):
        # spectrum drawn in [0.1, 10] bounds the ratio by 100
        for seed in range(20):
            H = random_spd(4, np.random.default_rng(seed))
            assert 1.0 <= condition_number(H) <= 100.0 + 1e-6
