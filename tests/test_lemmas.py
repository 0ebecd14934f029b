import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors
from gmineq.chains import expand_norm_tokens
from gmineq.generate import DEFAULT_LAW, SpectrumLaw, derive_seed, haar_unitary, random_spd
from gmineq.lemmas import (LEMMA_IDS, LemmaCase, eval_lemma, lemma_stack_terms, lemma_terms,
                           m_free, random_case, random_cases)
from gmineq.linalg import hermitize, matrix_power, psd_sv
from gmineq.norms import NormSpec
from gmineq.reports import dumps, lemma_block
from gmineq.sweep import SweepConfig, run_sweep

NORMS = [NormSpec.ky_fan(1), NormSpec.ky_fan(2), NormSpec("trace"),
         NormSpec.schatten(2), NormSpec("operator")]


class TestRandomCases:
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_deterministic(self, lemma_id):
        c1 = random_case(lemma_id, seed=99)
        c2 = random_case(lemma_id, seed=99)
        for key, val in c1.operands.items():
            if isinstance(val, list):
                for a, b in zip(val, c2.operands[key]):
                    np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_array_equal(val, c2.operands[key])
        assert c1.params == c2.params

    def test_m_free_rule(self):
        """An m-free id (no operand named Z or *_list) draws byte-identical
        operands and params at m = 1 and m = 4; the three ids whose
        operands carry m draw other shapes."""
        carry_m = {"BlockNormal", "ConvexSubadd", "BlockDiagStep"}
        assert {lid for lid in LEMMA_IDS if not m_free(lid)} == carry_m
        seeds = [derive_seed(12, k) for k in range(3)]
        for lid in LEMMA_IDS:
            one, four = (random_cases(lid, seeds, 3, m) for m in (1, 4))
            assert one.operands.keys() == four.operands.keys()
            shapes = {name: (np.shape(one.operands[name]), np.shape(four.operands[name]))
                      for name in one.operands}
            if lid in carry_m:
                assert all(a != b for a, b in shapes.values()), (lid, shapes)
                continue
            for name, (a, b) in shapes.items():
                assert a == b and one.operands[name].tobytes() == four.operands[name].tobytes(), \
                    (lid, name)
            assert one.params.keys() == four.params.keys()
            for name in one.params:
                assert one.params[name].tobytes() == four.params[name].tobytes(), (lid, name)

    def test_rejects_unknown_id(self):
        with pytest.raises(errors.ConfigError):
            random_case("Cauchy", seed=0)
        with pytest.raises(errors.ConfigError):
            LemmaCase("Cauchy", {}, {})


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_lemma_holds_on_admissible_cases(lemma_id, seed):
    case = random_case(lemma_id, seed, n=3, m=2)
    for norm in NORMS:
        rep = eval_lemma(case, norm)
        assert rep.passed, (lemma_id, seed, norm, rep.margin)


class TestEquality:
    def test_gram_swap_is_flagged_equality(self):
        rep = eval_lemma(random_case("GramSwap", 1), NormSpec("trace"))
        assert rep.equality and rep.passed
        assert abs(rep.margin) <= 1e-8 * max(1.0, rep.rhs)

    def test_normal_product_commuting_is_equality_in_value(self):
        rep = eval_lemma(random_case("NormalProduct", 2), NormSpec("operator"))
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9)


class TestHypothesisChecks:
    @pytest.mark.parametrize("lemma_id, params", [
        pytest.param("Araki", {"p": 1.0, "q": 0.5}, id="araki_bad_exponents"),
        pytest.param("Araki", {"p": 1.0}, id="araki_missing_q"),
        pytest.param("BlockNormal", {"n": 0}, id="block_normal_n_zero"),
        pytest.param("BlockNormal", {"n": 1.5}, id="block_normal_n_not_integer"),
        pytest.param("Hoelder", {"q": 2.0, "s": 3.0}, id="hoelder_non_conjugate"),
        pytest.param("Hoelder", {"q": "x", "s": 2.0}, id="hoelder_q_not_number"),
        pytest.param("PowerMonotoneFamily", {"r": 0.5}, id="power_monotone_r_below_one"),
        pytest.param("GramSwap", {"a": -1.0}, id="gram_swap_negative_a"),
        pytest.param("GramSwap", {"a": float("nan")}, id="gram_swap_nan_a"),
        pytest.param("GramSwap", {"a": float("inf")}, id="gram_swap_infinite_a"),
        pytest.param("ConvexSubadd", {"r": 0.5}, id="convex_r_below_one"),
        pytest.param("ConcaveSubaddBU", {"theta": 1.5}, id="concave_theta_out_of_range"),
        pytest.param("AUBPower", {"q": 0.5}, id="aub_power_q_below_one"),
        pytest.param("BlockDiagStep", {"s": 1.0}, id="block_diag_step_s_one"),
    ])
    def test_bad_parameters(self, lemma_id, params):
        """A parameter outside the lemma's hypothesis, NaN, infinite, missing
        or not a number is refused by the lemma's one check, with a message
        naming the lemma."""
        case = LemmaCase(lemma_id, random_case(lemma_id, 0).operands, params)
        with pytest.raises(errors.HypothesisViolation, match=f"^{lemma_id} needs "):
            eval_lemma(case, NormSpec("trace"))

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_missing_operand(self, lemma_id):
        """A case without one of its lemma's operands is refused with a
        package error naming the lemma and the operand."""
        case = random_case(lemma_id, 0)
        *kept, dropped = case.operands
        case = LemmaCase(lemma_id, {k: case.operands[k] for k in kept}, case.params)
        with pytest.raises(errors.ConfigError, match=f"^{lemma_id} needs operand '{dropped}'"):
            eval_lemma(case, NormSpec("trace"))

    def test_normal_product_premise(self):
        A = random_spd(3, 0)
        B = random_spd(3, 1)  # generic pair: AB is not normal
        with pytest.raises(errors.HypothesisViolation):
            eval_lemma(LemmaCase("NormalProduct", {"A": A, "B": B}, {}), NormSpec("trace"))

    def test_power_monotone_premise(self):
        case = LemmaCase(
            "PowerMonotoneFamily",
            {"A": np.diag([5.0, 1.0]), "B": np.diag([1.0, 1.0])},
            {"r": 2.0},
        )
        with pytest.raises(errors.HypothesisViolation):
            eval_lemma(case, NormSpec("trace"))

    def test_aub_power_requires_unitary(self):
        case = LemmaCase(
            "AUBPower",
            {"A": random_spd(2, 1), "B": random_spd(2, 2), "U": np.diag([1.0, 2.0])},
            {"q": 2.0},
        )
        with pytest.raises(errors.NotUnitary):
            eval_lemma(case, NormSpec("trace"))

    def test_block_normal_rejects_bad_blocks(self):
        # not Hermitian overall and blocks not normal
        rng = np.random.default_rng(2)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        case = LemmaCase("BlockNormal", {"Z": G}, {"n": 2})
        with pytest.raises(errors.HypothesisViolation):
            eval_lemma(case, NormSpec("trace"))


class TestClosedForms:
    def test_convex_subadd_scalar_equality_boundary(self):
        # r = 1: both sides are the same matrix
        case = LemmaCase("ConvexSubadd", {"A_list": [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]},
                         {"r": 1.0})
        rep = eval_lemma(case, NormSpec("trace"))
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_araki_commuting_equality(self):
        D1, D2 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        rep = eval_lemma(LemmaCase("Araki", {"A": D1, "B": D2}, {"p": 0.5, "q": 2.0}),
                         NormSpec("trace"))
        assert rep.margin == pytest.approx(0.0, abs=1e-10 * rep.rhs)

    def test_aub_power_identity_unitary_diag(self):
        A, B = np.diag([2.0, 1.0]), np.diag([1.0, 3.0])
        rep = eval_lemma(LemmaCase("AUBPower", {"A": A, "B": B, "U": np.eye(2)}, {"q": 2.0}),
                         NormSpec("operator"))
        # diagonal case: |AUB|^q = |A^q U B^q| exactly
        assert rep.margin == pytest.approx(0.0, abs=1e-10 * max(1.0, rep.rhs))

    def test_block_normal_unitary_blocks(self):
        U1, U2 = haar_unitary(2, 3), haar_unitary(2, 4)
        Z = np.zeros((4, 4), dtype=np.complex128)
        Z[:2, 2:] = U1
        Z[2:, :2] = U2  # normal blocks, non-Hermitian Z
        rep = eval_lemma(LemmaCase("BlockNormal", {"Z": Z}, {"n": 2}), NormSpec("operator"))
        assert rep.passed


class TestStacks:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 3), (4, 2), (2, 4)])
    def test_block_normal_matches_block_loop(self, n, m):
        """The stacked |Z_ij|, added by `sum_pairs`, give bitwise the sum of
        the per-block |Z_ij| = V* diag(s) V added in row-major order."""
        for seed in range(10):
            case = random_case("BlockNormal", seed, n=n, m=m)
            Z = case.operands["Z"]
            acc = np.zeros((n, n), dtype=np.complex128)
            for i in range(m):
                for j in range(m):
                    _, s, vh = np.linalg.svd(Z[i * n:(i + 1) * n, j * n:(j + 1) * n])
                    acc += (vh.conj().T * s) @ vh
            np.testing.assert_array_equal(lemma_terms(case).rhs_sv, psd_sv(acc))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 2)])
    def test_subadd_matches_matrix_loop(self, n, m):
        """One stacked power and `sum_pairs` give bitwise the terms of one
        power per matrix, added by Python's sum."""
        for seed in range(10):
            case = random_case("ConvexSubadd", seed, n=n, m=m)
            As, r = case.operands["A_list"], case.params["r"]
            terms = lemma_terms(case)
            np.testing.assert_array_equal(terms.lhs_sv, psd_sv(sum(matrix_power(A, r) for A in As)))
            np.testing.assert_array_equal(terms.rhs_sv, psd_sv(matrix_power(hermitize(sum(As)), r)))
            case = random_case("ConcaveSubaddBU", seed, n=n)
            A, B, theta = case.operands["A"], case.operands["B"], case.params["theta"]
            terms = lemma_terms(case)
            np.testing.assert_array_equal(terms.lhs_sv, psd_sv(matrix_power(hermitize(A + B), theta)))
            np.testing.assert_array_equal(
                terms.rhs_sv, psd_sv(matrix_power(A, theta) + matrix_power(B, theta)))


class TestWideSpectra:
    def test_block_diag_step_wide_law(self):
        """A law of condition 1e6 puts A_i^s past 1e10 for s near 3, where
        a unitary built from powered inputs could not be formed; U_i from
        the mean's own SVD evaluates every case."""
        law = SpectrumLaw(1e-3, 1e3)
        for i in range(30):
            case = random_case("BlockDiagStep", derive_seed(1, i), n=3, m=2, law=law)
            terms = lemma_terms(case)
            panel = [NormSpec.ky_fan(k) for k in range(1, terms.max_dim + 1)]
            records = lemma_block(case, terms, [derive_seed(1, i)], 3, [2], panel).records
            assert all(rec["pass"] for rec in records), (i, [rec["margins"] for rec in records])


STACK_PANEL = ["kyfan:all", "schatten:1", "schatten:2", "schatten:3.5", "schatten:inf", "trace",
               "operator", "frobenius"]


class TestStackedCases:
    """A case evaluated in a stack gives the bytes it gets alone, through
    `random_case`, `lemma_terms` and `lemma_block`."""

    @pytest.mark.parametrize("law", [DEFAULT_LAW, SpectrumLaw(1e-3, 1e3)], ids=["default", "wide"])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 2)])
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_row_matches_one_case(self, lemma_id, n, m, law):
        self._assert_rows_match(lemma_id, [derive_seed(5, k) for k in range(4)], n, m, law)

    @pytest.mark.parametrize("n, m, seed", [(3, 2, 12), (2, 4, 67)])
    def test_block_diag_step_schatten_rows(self, n, m, seed):
        """Cases whose Schatten 3.5 lhs differed in the last bit between a
        stack and a lone case while the descending lhs list was a reversed
        view, which numpy powers by another routine than a stack of them."""
        self._assert_rows_match("BlockDiagStep", [seed, derive_seed(5, 0), derive_seed(5, 1)],
                                n, m, DEFAULT_LAW)

    @staticmethod
    def _assert_rows_match(lemma_id, seeds, n, m, law):
        cases = random_cases(lemma_id, seeds, n, m, law)
        terms = lemma_stack_terms(cases)
        norms = expand_norm_tokens(STACK_PANEL, terms.max_dim)
        records = lemma_block(cases, terms, seeds, n, [m] * len(seeds), norms).records
        for k, seed in enumerate(seeds):
            case = random_case(lemma_id, seed, n, m, law)
            for name, operand in case.operands.items():
                assert cases.operands[name][k].tobytes() == np.asarray(operand).tobytes(), name
            assert {name: v[k].item() for name, v in cases.params.items()} == case.params
            one = lemma_terms(case)
            row = terms[k]
            for got, want in [(row.lhs_sv, one.lhs_sv), (row.rhs_sv, one.rhs_sv),
                              *zip(row.hoelder or (), one.hoelder or ())]:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            alone = lemma_block(case, one, [seed], n, [m], norms)
            assert dumps(records[k * len(norms):(k + 1) * len(norms)]) == dumps(alone.records)

    @pytest.mark.parametrize("lemma_id, name, row, error", [
        ("PowerMonotoneFamily", "A", 1, errors.HypothesisViolation),  # A no longer dominated
        ("NormalProduct", "B", 2, errors.HypothesisViolation),        # AB no longer normal
        ("AUBPower", "U", 0, errors.NotUnitary),
    ])
    def test_premise_checked_per_case(self, lemma_id, name, row, error):
        """One case of a stack that breaks its premise refuses the stack."""
        cases = random_cases(lemma_id, [1, 2, 3], 3, 2)
        lemma_stack_terms(cases)
        operand = cases.operands[name].copy()
        operand[row] = 10.0 * operand[row] + np.diag([1.0, 2.0, 3.0])
        with pytest.raises(error):
            lemma_stack_terms(LemmaCase(lemma_id, {**cases.operands, name: operand}, cases.params))

    def test_sweep_records_independent_of_group_size(self):
        """A task's lemma records do not depend on how many tasks share its
        (n, m) stack."""
        config = dict(chains=["lemmas"], n_values=[1, 2], m_values=[3], base_seed=4,
                      norms=STACK_PANEL)
        runs = [run_sweep(SweepConfig(instance_count=count, **config)).records
                for count in (1, 3, 8)]
        for small in runs[:2]:
            seeds = {rec["instance_seed"] for rec in small}
            large = [rec for rec in runs[2] if rec["instance_seed"] in seeds]
            assert dumps(large) == dumps(small)
