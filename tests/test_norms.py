import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.generate import haar_unitary
from gmineq.linalg import matrix_power
from gmineq.norms import NormSpec, ky_fan_dominance, norm_from_sv, norm_values, singular_values
from gmineq.reports import dumps

ALL_VARIANTS = [
    NormSpec.ky_fan(1),
    NormSpec.ky_fan(2),
    NormSpec.ky_fan(3),
    NormSpec.schatten(1),
    NormSpec.schatten(2),
    NormSpec.schatten(math.inf),
    NormSpec.trace(),
    NormSpec.operator(),
    NormSpec.frobenius(),
]


def norm_eval(M, spec) -> float:
    """One norm of M through the kernel."""
    return float(norm_values(singular_values(M), [spec])[0])


class TestSingularValues:
    def test_nilpotent(self):
        np.testing.assert_allclose(singular_values([[0, 2], [0, 0]]), [2.0, 0.0], atol=1e-14)

    def test_sign_insensitive(self):
        np.testing.assert_allclose(singular_values(np.diag([-3.0, 1.0])), [3.0, 1.0])

    def test_unitary(self):
        U = haar_unitary(4, 0)
        np.testing.assert_allclose(singular_values(U), np.ones(4), atol=1e-12)


class TestNormEval:
    def test_ky_fan(self):
        assert norm_eval(np.diag([3.0, 1.0, 2.0]), NormSpec.ky_fan(2)) == pytest.approx(5.0)

    def test_schatten(self):
        assert norm_eval(np.diag([3.0, 4.0]), NormSpec.schatten(2)) == pytest.approx(5.0)

    def test_operator(self):
        assert norm_eval(np.diag([3.0, 1.0, 2.0]), NormSpec.operator()) == pytest.approx(3.0)

    def test_aliases(self):
        M = np.random.default_rng(1).standard_normal((3, 3))
        assert norm_eval(M, NormSpec.trace()) == pytest.approx(norm_eval(M, NormSpec.ky_fan(3)), abs=1e-12)
        assert norm_eval(M, NormSpec.trace()) == pytest.approx(norm_eval(M, NormSpec.schatten(1)), abs=1e-12)
        assert norm_eval(M, NormSpec.operator()) == pytest.approx(norm_eval(M, NormSpec.ky_fan(1)), abs=1e-12)
        assert norm_eval(M, NormSpec.operator()) == pytest.approx(
            norm_eval(M, NormSpec.schatten(math.inf)), abs=1e-12)
        assert norm_eval(M, NormSpec.frobenius()) == pytest.approx(
            norm_eval(M, NormSpec.schatten(2)), abs=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(errors.InvalidSpec):
            NormSpec.schatten(0.5)
        with pytest.raises(errors.InvalidSpec):
            NormSpec.ky_fan(0)
        with pytest.raises(errors.InvalidSpec):
            norm_from_sv(singular_values(np.eye(2)), NormSpec.ky_fan(3))

    def test_parse_labels(self):
        assert NormSpec.parse("kyfan:3") == NormSpec.ky_fan(3)
        assert NormSpec.parse("schatten:inf") == NormSpec.schatten(math.inf)
        assert NormSpec.parse("trace") == NormSpec.trace()
        for bad in ("nuclear", "kyfan:x", "kyfan:", "schatten:abc", "schatten:nan"):
            with pytest.raises(errors.InvalidSpec):
                NormSpec.parse(bad)

    @pytest.mark.parametrize("spec, record", [
        (NormSpec.ky_fan(3), {"variant": "kyfan", "k": 3}),
        (NormSpec.schatten(1), {"variant": "schatten", "p": 1.0}),
        (NormSpec.schatten(1.5), {"variant": "schatten", "p": 1.5}),
        (NormSpec.schatten(math.inf), {"variant": "schatten", "p": "inf"}),
        (NormSpec.trace(), {"variant": "trace"}),
        (NormSpec.operator(), {"variant": "operator"}),
        (NormSpec.frobenius(), {"variant": "frobenius"}),
    ])
    def test_record_round_trip(self, spec, record):
        assert spec.to_record() == record
        assert NormSpec.from_record(json.loads(dumps(record))) == spec

    def test_padded_ky_fan(self):
        sv = np.array([3.0, 1.0])
        assert norm_from_sv(sv, NormSpec.ky_fan(5), pad=True) == pytest.approx(4.0)
        np.testing.assert_array_equal(norm_values(sv, [NormSpec.ky_fan(k) for k in (1, 2, 5)]),
                                      [3.0, 4.0, 4.0])

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, V = haar_unitary(3, 2 * seed), haar_unitary(3, 2 * seed + 1)
        a = norm_values(singular_values(M), ALL_VARIANTS)
        b = norm_values(singular_values(U @ M @ V), ALL_VARIANTS)
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, a))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        N = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = norm_values(singular_values(M + N), ALL_VARIANTS)
        rhs = (norm_values(singular_values(M), ALL_VARIANTS)
               + norm_values(singular_values(N), ALL_VARIANTS))
        assert np.all(lhs <= rhs + 1e-10 * np.maximum(1.0, rhs))

    @given(st.integers(0, 500), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_gram_swap(self, seed, a):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        left = matrix_power(0.5 * (Y.conj().T @ Y + (Y.conj().T @ Y).conj().T), a)
        right = matrix_power(0.5 * (Y @ Y.conj().T + (Y @ Y.conj().T).conj().T), a)
        l = norm_values(singular_values(left), ALL_VARIANTS)
        r = norm_values(singular_values(right), ALL_VARIANTS)
        assert np.all(np.abs(l - r) <= 1e-9 * np.maximum(1.0, r))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_normal_product_swap(self, seed):
        # commuting Hermitian pair: AB is Hermitian, hence normal
        rng = np.random.default_rng(seed)
        Q = haar_unitary(3, seed)
        A = (Q * rng.uniform(-2, 2, 3)) @ Q.conj().T
        B = (Q * rng.uniform(-2, 2, 3)) @ Q.conj().T
        ab = norm_values(singular_values(A @ B), ALL_VARIANTS)
        ba = norm_values(singular_values(B @ A), ALL_VARIANTS)
        assert np.all(ab <= ba + 1e-10 * np.maximum(1.0, ba))


def kernel_specs(d: int) -> list:
    """Every spec kind, Ky Fan k past the list length included."""
    return ([NormSpec.ky_fan(k) for k in range(1, d + 4)]
            + [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
            + [NormSpec.trace(), NormSpec.operator(), NormSpec.frobenius()])


def descending_spectra(rng, shape) -> np.ndarray:
    return -np.sort(-rng.uniform(0.0, 10.0, size=shape), axis=-1)


def definition(sv: np.ndarray, spec: NormSpec) -> float:
    if spec.variant == "kyfan":
        return math.fsum(sv[: spec.k])  # missing singular values are zeros
    if spec.variant == "trace":
        return math.fsum(sv)
    if spec.variant == "operator" or spec.p == math.inf:
        return float(sv.max())
    p = 2.0 if spec.variant == "frobenius" else spec.p
    return math.fsum(sv ** p) ** (1.0 / p)


class TestNormValues:
    @pytest.mark.parametrize("d", [1, 2, 5, 8, 9, 17])
    def test_columns_match_definitions(self, d):
        rng = np.random.default_rng(d)
        specs = kernel_specs(d)
        for sv in descending_spectra(rng, (20, d)):
            got = norm_values(sv, specs)
            want = [definition(sv, spec) for spec in specs]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(6, 3), (7, 12), (2, 3, 9)])
    def test_stack_rows_bitwise_as_alone(self, shape):
        rng = np.random.default_rng(sum(shape))
        specs = kernel_specs(shape[-1])
        stack = descending_spectra(rng, shape)
        got = norm_values(stack, specs)
        assert got.shape == shape[:-1] + (len(specs),)
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(got[index], norm_values(stack[index], specs)), index
            for j, spec in enumerate(specs):
                assert norm_from_sv(stack[index], spec, pad=True) == got[index][j]

    def test_ky_fan_past_the_rank_is_the_trace(self):
        sv = np.concatenate([descending_spectra(np.random.default_rng(3), 5), np.zeros(7)])
        values = norm_values(sv, [NormSpec.trace()] + [NormSpec.ky_fan(k) for k in range(5, 15)])
        assert np.all(values == values[0])


class TestKyFanDominance:
    def test_dominated(self):
        rep = ky_fan_dominance(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]))
        assert rep.dominated and rep.worst_margin == pytest.approx(0.0)

    def test_not_dominated(self):
        rep = ky_fan_dominance(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
        assert not rep.dominated
        assert rep.worst_k == 1
        assert rep.worst_margin == pytest.approx(-1.0)

    def test_equal(self):
        M = np.diag([3.0, 1.0])
        rep = ky_fan_dominance(M, M)
        assert rep.dominated and rep.worst_margin == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            ky_fan_dominance(np.eye(2), np.eye(3))

    def test_stack_reports_first_failing_pair(self):
        """Stacks compare pair by pair: dominated only if every pair is,
        with the worst Ky Fan index and margin of the first pair that fails."""
        X = np.stack([np.diag([1.0, 1.0]), np.diag([2.0, 2.0]), np.diag([2.0, 0.0])])
        Y = np.stack([np.diag([2.0, 0.0]), np.diag([3.0, 0.0]), np.diag([1.0, 1.0])])
        rep = ky_fan_dominance(X, Y)
        assert not rep.dominated and rep.worst_k == 2 and rep.worst_margin == pytest.approx(-1.0)
        assert ky_fan_dominance(X[:1], Y[:1]).dominated
