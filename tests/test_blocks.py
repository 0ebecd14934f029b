import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.blocks import (
    InstanceSet,
    build_Y,
    build_Z,
    reduced_core,
    verify_equivalences,
)
from gmineq.chains import commuting_terms
from gmineq.generate import generate_instance
from gmineq.linalg import hermitian_eig, matrix_power


class TestInstanceSet:
    def test_validate_accepts_generated(self):
        generate_instance("generic", 3, 2, 5).validate()
        generate_instance("commuting", 3, 2, 5).validate()

    def test_rejects_pair_count_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            InstanceSet(m=2, n=2, A=[np.eye(2)], B=[np.eye(2)]).validate()

    def test_rejects_wrong_shape(self):
        with pytest.raises(errors.DimensionMismatch):
            InstanceSet(m=1, n=3, A=[np.eye(2)], B=[np.eye(2)]).validate()

    @pytest.mark.parametrize("m, n, A", [
        (2, 2, [np.eye(2)] * 3),                  # one pair too many
        (1, 2, [np.eye(3)]),                      # matrix size
        (2, 2, [np.eye(2), np.eye(3)]),           # ragged stack
        (1, 2, [[[1.0, 0.0], [0.0]]]),            # ragged matrix
    ])
    def test_rejects_shape_when_built(self, m, n, A):
        with pytest.raises(errors.DimensionMismatch):
            InstanceSet(m=m, n=n, A=A, B=[np.eye(n)] * m)

    @pytest.mark.parametrize("m, n, got", [(1, "x", "m=1, n='x'"), (1.0, 2, "m=1.0, n=2"),
                                           (True, 2, "m=True, n=2")])
    def test_rejects_non_integer_size(self, m, n, got):
        with pytest.raises(errors.ConfigError, match=f"^m and n must be integers, got {got}$"):
            InstanceSet(m=m, n=n, A=[np.eye(2)], B=[np.eye(2)])

    def test_rejects_a_stack_of_instances(self):
        """An instance set is one instance: K instances' (K, m, n, n)
        stacks are refused, with a tuple of seeds too."""
        A = np.broadcast_to(np.eye(2), (3, 2, 2, 2))
        with pytest.raises(errors.DimensionMismatch, match=r"got shape \(3, 2, 2, 2\)"):
            InstanceSet(m=2, n=2, A=A, B=A, seed=(1, 2, 3))

    def test_stacks_are_read_only(self):
        inst = InstanceSet(m=2, n=2, A=[np.eye(2), 2 * np.eye(2)], B=np.ones((2, 2, 2)) + np.eye(2))
        for X in (inst.A, inst.B):
            assert X.shape == (2, 2, 2) and X.dtype == np.complex128 and not X.flags.writeable

    def test_validate_decomposes_nothing_new(self, monkeypatch):
        """validate() reads positive definiteness from the stacked
        decompositions the chains use: with both commuting variants, 3
        eigh calls (A, B and both sums in one, and the two commuting left
        sides)."""
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        inst = generate_instance("commuting", 3, 2, 5)
        inst.validate()
        for variant in ("product", "symmetrized"):
            commuting_terms(inst, variant)
        assert len(calls) == 3, calls

    def test_rejects_indefinite(self):
        with pytest.raises(errors.SingularInput):
            InstanceSet(m=1, n=2, A=[np.diag([1.0, -1.0])], B=[np.eye(2)]).validate()

    def test_rejects_unknown_kind(self):
        with pytest.raises(errors.ConfigError):
            InstanceSet(m=1, n=2, A=[np.eye(2)], B=[np.eye(2)], kind="weird").validate()

    def test_rejects_noncommuting_pair(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = np.diag([1.0, 3.0])
        with pytest.raises(errors.NotCommuting):
            InstanceSet(m=1, n=2, A=[A], B=[B], kind="commuting").validate()

    def test_sums(self):
        inst = InstanceSet(m=2, n=2, A=[np.eye(2), 2 * np.eye(2)], B=[3 * np.eye(2), np.eye(2)])
        sum_A, sum_B = inst.spectra.sums
        np.testing.assert_allclose(sum_A[0], 3 * np.eye(2))
        np.testing.assert_allclose(sum_B[0], 4 * np.eye(2))


class TestBlockMatrix:
    def test_single_pair_block(self):
        inst = generate_instance("generic", 3, 1, 9)
        Z = build_Z(inst)
        Bh = matrix_power(inst.B[0], 0.5)
        np.testing.assert_allclose(Z, Bh @ inst.A[0] @ Bh, atol=1e-12)

    def test_scalar_entries(self):
        # n = 1: Z_ij = sqrt(b_i) (a_1 + a_2) sqrt(b_j)
        a = [np.array([[2.0]]), np.array([[3.0]])]
        b = [np.array([[4.0]]), np.array([[9.0]])]
        inst = InstanceSet(m=2, n=1, A=a, B=b)
        Z = build_Z(inst)
        expected = np.array([[5.0 * 4.0, 5.0 * 2.0 * 3.0], [5.0 * 3.0 * 2.0, 5.0 * 9.0]])
        np.testing.assert_allclose(Z, expected, atol=1e-12)

    def test_Z_is_hermitian_psd(self):
        inst = generate_instance("generic", 2, 3, 11)
        Z = build_Z(inst)
        assert np.abs(Z - Z.conj().T).max() <= 1e-12 * np.abs(Z).max()
        w = hermitian_eig(Z).eigenvalues
        assert w[-1] >= -1e-10 * w[0]

    def test_rank_at_most_n(self):
        inst = generate_instance("generic", 2, 3, 12)
        w = hermitian_eig(build_Z(inst)).eigenvalues
        assert np.all(w[inst.n:] <= 1e-10 * w[0])

    def test_factor_reconstructs(self):
        inst = generate_instance("generic", 3, 2, 13)
        Z, Y = build_Z(inst), build_Y(inst)
        assert np.linalg.norm(Z - Y @ Y.conj().T) <= 1e-12 * np.linalg.norm(Z)

    def test_core_spectrum_matches_Z(self):
        inst = generate_instance("generic", 3, 2, 14)
        wZ = hermitian_eig(build_Z(inst)).eigenvalues[: inst.n]
        w_core = hermitian_eig(reduced_core(inst)).eigenvalues
        np.testing.assert_allclose(wZ, w_core, rtol=0, atol=1e-10 * w_core[0])


class TestVerifyEquivalences:
    @given(st.integers(0, 2000), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["generic", "commuting"]))
    @settings(max_examples=40, deadline=None)
    def test_passes_on_random_instances(self, seed, n, m, kind):
        rep = verify_equivalences(generate_instance(kind, n, m, seed), tol=1e-10)
        assert rep.passed, (rep.factorization_defect, rep.spectrum_defect)
