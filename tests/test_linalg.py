import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.generate import haar_unitary, random_spd
from gmineq.blocks import InstanceSet
from gmineq.chains import commuting_terms
from gmineq.linalg import (EigenDecomposition, from_spectrum, hermitian_eig, hermitize,
                           matrix_power, power_from_eig, power_rows, psd_sv, require_pd,
                           sum_pairs)


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
        assert np.abs(from_spectrum(eig.vectors, eig.eigenvalues) - H).max() <= 1e-12 * scale
        assert np.abs(eig.vectors @ eig.vectors.conj().T - np.eye(4)).max() <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(errors.NonFiniteInput, match="NaN or Inf") as caught:
            hermitian_eig(np.array([[1.0, 0.0], [0.0, bad]]))
        assert isinstance(caught.value, ValueError)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalues_invariant_under_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian(3, rng)
        U = haar_unitary(3, seed)
        w1 = hermitian_eig(H).eigenvalues
        w2 = hermitian_eig(0.5 * (U @ H @ U.conj().T + (U @ H @ U.conj().T).conj().T)).eigenvalues
        np.testing.assert_allclose(w1, w2, atol=1e-10 * (1 + np.abs(w1).max()))


class TestMatrixPower:
    def test_diagonal_sqrt(self):
        np.testing.assert_allclose(matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13)

    def test_identity_exponent(self):
        H = random_spd(3, 0)
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
        H = random_spd(3, 7)
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
        H = random_spd(3, seed)
        left = matrix_power(matrix_power(H, x), y)
        right = matrix_power(H, x * y)
        assert np.linalg.norm(left - right) <= 1e-9 * max(1.0, np.linalg.norm(right))


def _condition(H) -> float:
    """Condition number of H through the instance gate: a single pair (H, H)."""
    return float(InstanceSet(m=1, n=H.shape[0], A=[H], B=[H]).spectra.condition_max[0])


class TestDefiniteness:
    def test_identity(self):
        np.testing.assert_array_equal(require_pd(hermitian_eig(np.eye(3))).eigenvalues, np.ones(3))

    def test_semidefinite_boundary(self):
        with pytest.raises(errors.SingularInput):
            require_pd(hermitian_eig(np.diag([1.0, 0.0])))

    def test_indefinite(self):
        with pytest.raises(errors.SingularInput):
            require_pd(hermitian_eig(np.diag([1.0, -1.0])))

    def test_condition_identity(self):
        assert _condition(np.eye(3)) == pytest.approx(1.0)

    def test_condition_diag(self):
        assert _condition(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_condition_bounded_by_spectrum_law(self):
        # spectrum drawn in [0.1, 10] bounds the ratio by 100
        for seed in range(20):
            H = random_spd(4, seed)
            assert 1.0 <= _condition(H) <= 100.0 + 1e-6


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_hermitize_is_idempotent_bitwise():
    """hermitize(hermitize(X)) has the bytes of hermitize(X) for general
    complex stacks X, with entries of both signs, -0.0 and subnormals (the
    smallest, +-5e-324, among them), and for [[1, -0.0+1j], [-0.0-1j, 1]],
    whose zero parts a complex multiply by 0.5 flipped over two passes.
    On the same stacks S = sum_pairs(X), the Hermitized sum that
    `InstanceSpectra._by_instance` returns to `psd_sv` and `sums`, holds
    no -0.0, since the sum starts from +0.0.  Before those entries are
    planted, hermitize(X) has the bytes of 0.5 * (X + X*)."""
    found = np.array([[1.0, complex(-0.0, 1.0)], [complex(-0.0, -1.0), 1.0]])
    H = hermitize(found)
    assert _bitwise_equal(hermitize(H), H)
    rng = np.random.default_rng(33)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 3e-320, -7e-318])
    subnormal = False
    for scale in (1.0, 1e-300, 1e-310, 1e150):
        X = (rng.standard_normal((6, 3, 4, 4)) + 1j * rng.standard_normal((6, 3, 4, 4))) * scale
        assert _bitwise_equal(hermitize(X), 0.5 * (X + X.conj().mT))
        parts = X.view(np.float64)
        mask = rng.random(parts.shape) < 0.3
        parts[mask] = rng.choice(special, mask.sum())
        H = hermitize(X)
        assert _bitwise_equal(hermitize(H), H)
        S = sum_pairs(X)
        h = S.view(np.float64)
        assert (np.signbit(parts) & (parts == 0.0)).any()
        assert not (np.signbit(h) & (h == 0.0)).any() and (h < 0.0).any() and (h > 0.0).any()
        subnormal |= ((h != 0.0) & (np.abs(h) < np.finfo(np.float64).tiny)).any()
        assert _bitwise_equal(hermitize(S), S)
    assert subnormal


class TestBroadcastExponents:
    """Per-row exponents with more axes than a spectrum's leading ones
    broadcast against a spectrum that is not stacked, as in a parameter
    grid on one instance: row k is bitwise the call at exponent k."""

    # sqrt, square, reciprocal and a repeat next to generic exponents
    X = [0.5, 2.0, -1.0, 1.7, 0.5, -0.35, 3.0]

    def test_column_exponents_against_pairs(self):
        eig = hermitian_eig(np.stack([random_spd(4, seed) for seed in (60, 61, 62)]))
        x = np.array(self.X)[:, None]
        got, got_rows = power_from_eig(eig, x), power_rows(eig.eigenvalues, x)
        assert got.shape == (len(self.X), 3, 4, 4) and got_rows.shape == (len(self.X), 3, 4)
        for k, xk in enumerate(self.X):
            assert _bitwise_equal(got[k], power_from_eig(eig, xk))
            assert _bitwise_equal(got_rows[k], power_rows(eig.eigenvalues, xk))

    def test_row_exponents_against_one_matrix(self):
        eig = hermitian_eig(random_spd(6, 61))
        x = np.array(self.X)
        got, got_rows = power_from_eig(eig, x), power_rows(eig.eigenvalues, x)
        assert got.shape == (len(self.X), 6, 6) and got_rows.shape == (len(self.X), 6)
        for k, xk in enumerate(self.X):
            assert _bitwise_equal(got[k], power_from_eig(eig, xk))
            assert _bitwise_equal(got_rows[k], power_rows(eig.eigenvalues, xk))

    @staticmethod
    def _diagonal(w):
        """Diagonal matrices of spectra w (..., n): identity eigenvectors."""
        w = np.asarray(w, dtype=np.float64)
        return EigenDecomposition(w, np.broadcast_to(np.eye(w.shape[-1]), w.shape + w.shape[-1:]))

    def test_singular_row_is_named(self):
        """Only the second matrix is singular for a negative power; the error
        names its smallest eigenvalue and its PD floor, under either
        broadcast (three rows of exponents against two matrices, or
        against two eigenvalues, so that no mask fits the spectrum by
        accident)."""
        eig = self._diagonal([[2.0, 1.0], [1.0, 1e-12]])
        message = "min eigenvalue 1.000e-12 at or below PD floor 1.000e-10"
        with pytest.raises(errors.SingularForNegativePower, match=message):
            power_from_eig(eig, np.array([[1.0], [-1.0], [0.5]]))
        with pytest.raises(errors.SingularForNegativePower, match=message):
            power_from_eig(eig[1], np.array([0.5, -0.5, 1.0]))
        assert power_from_eig(eig, np.array([[1.0], [0.5]])).shape == (2, 2, 2, 2)

    def test_negative_row_is_named(self):
        """The second matrix has a negative eigenvalue beyond the clip
        floor: an integer power of it is allowed, a fractional one names
        that eigenvalue, under either broadcast."""
        eig = self._diagonal([[2.0, 1.0], [1.0, -0.5]])
        message = "min eigenvalue -5.000e-01 is negative beyond the clip floor"
        with pytest.raises(errors.NotPositiveSemidefinite, match=message):
            power_from_eig(eig, np.array([[2.0], [0.5], [3.0]]))
        with pytest.raises(errors.NotPositiveSemidefinite, match=message):
            power_from_eig(eig[1], np.array([3.0, 0.5, 2.0]))
        assert power_from_eig(eig, np.array([[2.0], [3.0]])).shape == (2, 2, 2, 2)


class TestPowerRule:
    """`power_rows` makes one array power call and redoes the rows at
    numpy's scalar fast-path exponents.  On the running numpy build, every
    row must come out bitwise as `a_row ** float(x_row)`, the scalar power
    a row gets alone."""

    # the fast paths, 0 and 1, repeats, and generic exponents of both signs
    FIXED = [0.5, 2.0, -1.0, 0.0, 1.0, 0.5, 2.0, -1.0, 3.0, 1.0 / 3.0, 1.5, -0.5, 1.5]

    @staticmethod
    def _bases(rng, rows, cols):
        """Positive bases over many binades, with 0, 1 and subnormals."""
        a = np.exp(rng.uniform(-40.0, 40.0, (rows, cols)))
        tiny = np.finfo(np.float64).tiny
        special = [0.0, 1.0, tiny, tiny / 3.0, 5e-324, 2.0 ** -1050, 1.0 - 2.0 ** -53]
        for value in special:
            a.flat[rng.integers(0, a.size, 3)] = value
        return a

    def _exponents(self, rng, count):
        x = np.concatenate([self.FIXED, rng.uniform(-3.0, 3.0, count)])
        return rng.permutation(np.concatenate([x, x[rng.integers(0, x.size, count)]]))

    @staticmethod
    def _check(a, x):
        """power_rows(a, x) against the scalar power of each row, a (R, L)
        and x (R,).  A row alone is a spectrum of its own, a contiguous
        array: numpy powers a 1-d array of negative stride by another
        routine, which rounds differently."""
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            got = power_rows(a, x)
            for k in range(len(x)):
                want = np.ascontiguousarray(a[k]) ** float(x[k])
                assert _bitwise_equal(got[k], want), (k, x[k])

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_scalar_power(self, seed):
        rng = np.random.default_rng(70 + seed)
        x = self._exponents(rng, 40)
        a = self._bases(rng, 3 * len(x), 19)
        self._check(a[:len(x)], x)
        self._check(a[1::3], x)                              # strided rows
        self._check(a[:2 * len(x):2, ::-2], x)               # strided, reversed columns
        self._check(a[len(x):2 * len(x), 3:11], x)           # a sub-slice
        self._check(a[len(x) - 1::-1, ::-1], x)              # reversed rows and columns
        self._check(a[:1, ::-1], x[:1])                      # one reversed row
        self._check(np.asfortranarray(a[:len(x)]), x)        # column-major
        self._check(np.broadcast_to(a[0], (len(x), 19)), x)  # one row, broadcast

    def test_integer_exponents_of_negative_bases(self):
        rng = np.random.default_rng(76)
        x = rng.permutation(np.array([-1.0, 0.0, 1.0, 2.0, 3.0, -2.0, 2.0, 4.0] * 3))
        self._check(-self._bases(rng, len(x), 7), x)

    def test_broadcast_exponents(self):
        """Exponents with more axes than the spectrum's leading ones: row k
        of the result is the scalar power of the whole spectrum."""
        rng = np.random.default_rng(77)
        x = self._exponents(rng, 12)
        w = self._bases(rng, 3, 5)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            got, got_rows = power_rows(w, x[:, None]), power_rows(w[0], x)
            for k in range(len(x)):
                assert _bitwise_equal(got[k], w ** float(x[k]))
                assert _bitwise_equal(got_rows[k], w[0] ** float(x[k]))

    def test_scalar_and_uniform_exponents(self):
        rng = np.random.default_rng(78)
        w = self._bases(rng, 4, 6)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            for xk in (0.5, 2.0, -1.0, 1.7):
                want = w ** xk
                for x in (xk, np.float64(xk), np.array(xk), np.full(4, xk)):
                    assert _bitwise_equal(power_rows(w, x), want)


def test_commuting_terms_rejects_non_pd_instance():
    """commuting_terms validates the instance itself: a commuting instance
    with a singular A_1 raises the error that `validate` raises."""
    def instance():
        return InstanceSet(m=2, n=2, A=[np.eye(2), np.diag([1.0, 0.0])], B=[np.eye(2)] * 2,
                           kind="commuting")

    with pytest.raises(errors.SingularInput) as want:
        instance().validate()
    for variant in ("product", "symmetrized"):
        with pytest.raises(errors.SingularInput) as got:
            commuting_terms(instance(), variant)
        assert str(got.value) == str(want.value)
