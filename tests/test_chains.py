import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import cli, errors, highprec
from gmineq.blocks import InstanceSet
from gmineq.chains import (
    DEFAULT_CONDITION_CAP,
    ChainParams,
    ChainTerms,
    InstanceSpectra,
    chain_margins,
    commuting_terms,
    expand_norm_tokens,
    geo_z_terms,
    grid_terms,
    main_chain_terms,
    point_status,
    t_chain_status,
    t_chain_terms,
)
from gmineq.generate import derive_seed, generate_instance, haar_unitary
from gmineq.hunt import _point_margin
from gmineq.linalg import hermitian_eig, hermitize, matrix_power
from gmineq.norms import NormSpec, norm_values
from gmineq.reports import (SCHEMA_VERSION, argmin_record, chain_block, dumps,
                            has_proven_failure, order_norms)
from gmineq.sweep import SweepConfig, run_sweep

NORMS = [NormSpec.ky_fan(1), NormSpec.ky_fan(2), NormSpec.schatten(1),
         NormSpec.schatten(2), NormSpec.schatten(np.inf)]
# Criterion 1's (s, r, p) grid: 28 points.
MAIN_GRID = [ChainParams(s=s, r=r, p=p) for s in (2.0, 2.5, 3.0, 4.0)
             for r in (1.0, 1.5, 2.0) for p in (0.5, 1.0, 2.0) if r * p >= 1.0]


class TestMainChain:
    def test_hypothesis_violations(self):
        inst = generate_instance("generic", 2, 2, 0)
        for params in (ChainParams(s=1.5), ChainParams(s=2, r=0.5),
                       ChainParams(s=2, r=1, p=0.5)):
            with pytest.raises(errors.HypothesisViolation):
                main_chain_terms(inst, params)

    def test_grid_hypothesis_names_first_failing_point(self):
        """`grid_terms` checks a grid's columns at once, and its message
        names the grid's first point that fails, as the point was given."""
        inst = generate_instance("generic", 2, 2, 0)
        grid = [ChainParams(), ChainParams(s=2, r=0.5), ChainParams(s=1.5)]
        with pytest.raises(errors.HypothesisViolation) as exc:
            grid_terms(inst.spectra, "main", grid)
        assert str(exc.value) == ("main requires s >= 2, r >= 1, p > 0 with rp >= 1;"
                                  " got s=2, r=0.5, p=1.0, t=0.5")

    def test_boundary_params_accepted(self):
        inst = generate_instance("generic", 2, 2, 0)
        params = ChainParams(s=2.0, r=1.0, p=1.0)
        rec = chain_block(main_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                          NORMS).records[0]
        assert rec["status"] == "proven"

    @given(st.integers(0, 2000), st.sampled_from([2.0, 3.0]),
           st.sampled_from([1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_chain_holds(self, seed, s, r, p):
        if r * p < 1.0:
            return
        inst = generate_instance("generic", 2, 2, seed)
        params = ChainParams(s=s, r=r, p=p)
        block = chain_block(main_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                            NORMS)
        for rec in block.records:
            if not rec["gated"]:
                assert rec["pass"], (seed, s, r, p, rec["norm"], rec["margins"])

    def test_middle_term_ordered(self):
        inst = generate_instance("generic", 3, 2, 17)
        params = ChainParams(s=2, r=1, p=1)
        block = chain_block(main_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                            [NormSpec("trace")])
        rec, = block.records
        assert rec["mid"] is not None
        assert rec["lhs"] <= rec["mid"] + 1e-8 * max(1.0, rec["rhs"])
        assert rec["mid"] <= rec["rhs"] + 1e-8 * max(1.0, rec["rhs"])

    def test_scalar_collapse_is_equality(self):
        inst = generate_instance("generic", 1, 1, 23)
        params = ChainParams(s=3, r=2, p=0.5)
        block = chain_block(main_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                            [NormSpec("operator")])
        rec, = block.records
        assert max(abs(v) for v in rec["margins"]) <= 1e-12 * max(1.0, rec["rhs"])


class TestGeoZ:
    def test_rejects_small_s(self):
        inst = generate_instance("generic", 2, 2, 0)
        with pytest.raises(errors.HypothesisViolation):
            geo_z_terms(inst, 0.5)

    @given(st.integers(0, 2000), st.sampled_from([1.0, 1.25, 1.5, 1.75]))
    @settings(max_examples=30, deadline=None)
    def test_left_step_holds_below_two(self, seed, s):
        inst = generate_instance("generic", 2, 2, seed)
        block = chain_block(geo_z_terms(inst, s), inst.n, inst.m, [inst.seed],
                            [ChainParams(s=s, r=1.0, p=1.0)], NORMS)
        for rec in block.records:
            if not rec["gated"]:
                assert rec["pass"], (seed, s, rec["norm"], rec["margins"])


class TestTChain:
    def test_status_table(self):
        assert t_chain_status(ChainParams(s=1.0, r=2.0, p=0.5, t=0.3)) == "proven"
        assert t_chain_status(ChainParams(s=2.5, r=1.0, p=1.0, t=0.5)) == "proven"
        # r < 1 is outside the theorem's r >= 1, so s = 2 with rp >= 1 is not enough
        assert t_chain_status(ChainParams(s=2.0, r=0.75, p=2.0, t=0.5)) == "conjectured"
        assert t_chain_status(ChainParams(s=1.5, r=1.0, p=1.0, t=0.5)) == "conjectured"
        assert t_chain_status(ChainParams(s=2.5, r=1.0, p=1.0, t=0.3)) == "conjectured"
        # t in {0, 1}: superadditivity of x^{sr}, which needs sr >= 1 only
        for t in (0.0, 1.0):
            for s, r in ((1.5, 1.0), (2.0, 0.5), (4.0, 0.3), (1.0, 1.0), (3.0, 2.0)):
                assert t_chain_status(ChainParams(s=s, r=r, p=0.5, t=t)) == "proven"
            assert t_chain_status(ChainParams(s=1.5, r=0.5, p=1.0, t=t)) == "conjectured"

    def test_endpoint_rule_holds_on_instances(self):
        """Every record the t in {0, 1} rule labels proven passes, at sr from
        1 up to 6 and r below and above 1."""
        cfg = SweepConfig(chains=["t-chain"], n_values=[2, 3], m_values=[1, 2, 3],
                          instance_count=12, base_seed=3, s_values=[1.5, 2.0, 4.0],
                          r_values=[0.3, 0.5, 1.0, 2.0], p_values=[0.5, 1.0, 2.0],
                          t_values=[0.0, 1.0], norms=["kyfan:all"])
        rs = run_sweep(cfg)
        proven = [rec for rec in rs.records if rec["status"] == "proven"]
        assert len(proven) > len(rs.records) // 2 and not has_proven_failure(rs)

    # (x, phi) of W(x, phi), the point (s, t, r, p), its Ky Fan 1 margin.
    WITNESSES = [
        (2.0, 15.0, 2.0, 0.5, 0.5, 2.0, -1.2631e-2),
        (3.0, 15.0, 2.0, 0.5, 0.5, 2.0, -2.7244e-2),
        (2.0, 15.0, 4.0, 0.5, 0.25, 4.0, -5.8613e-2),
        (4.0, 10.0, 1.25, 0.5, 0.8, 1.0, -3.5542e-3),
        (6.0, 10.0, 1.5, 0.5, 0.7, 1.0, -1.7120e-3),
        (6.0, 10.0, 2.0, 0.5, 0.55, 1.0, -5.8135e-3),
        (6.0, 5.0, 4.0, 0.5, 0.3, 1.0, -1.7279e-2),
    ]

    @pytest.mark.parametrize("x, phi, s, t, r, p, margin", WITNESSES, ids=[
        f"W({x:g},{phi:g})-s{s:g}-t{t:g}-r{r:g}-p{p:g}" for x, phi, s, t, r, p, _ in WITNESSES])
    def test_witness_below_r_one_is_not_proven(self, x, phi, s, t, r, p, margin):
        """The closed-form witnesses W(x, phi): D = diag(x, 1/x),
        A_1 = B_1 = D, and A_2, B_2 the rotations of D by 90 - phi and
        90 + phi degrees.  At each point r < 1 (sr >= 1, and rp = 1 at the
        first three), the Ky Fan 1 margin of the hunt's evaluation is
        negative, as pinned, and the extended-precision oracle confirms it,
        so the point must not be labelled proven."""
        D = np.diag([x, 1.0 / x])

        def rotated(degrees):
            c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
            R = np.array([[c, -s], [s, c]])
            return R @ D @ R.T

        inst = InstanceSet(m=2, n=2, A=[D, rotated(90.0 - phi)], B=[D, rotated(90.0 + phi)])
        params = ChainParams(s=s, r=r, p=p, t=t)
        got, _ = _point_margin(inst, params, [NormSpec.ky_fan(1)], DEFAULT_CONDITION_CAP)
        assert got == pytest.approx(margin, rel=5e-5)
        oracle = highprec.t_chain_margin(inst.A, inst.B, params, NormSpec.ky_fan(1))
        assert abs(got - oracle) < 1e-8
        assert point_status("t-chain", params, 2) != "proven"
        assert t_chain_status(params) != "proven"

    @pytest.mark.parametrize("n, m", [(1, 2), (3, 2), (2, 4)])
    def test_identity_instance_refutes_sr_below_one(self, n, m):
        """With m >= 2 and sr < 1, A_i = B_i = I gives the lhs m I against
        the rhs m^{sr} I at every t and p, so each such record, and the
        hunt's arg-min there, is refuted and fails; at m = 1, or at
        sr >= 1, `t_chain_status` decides.  The rule is not in
        `t_chain_status`, which has no m."""
        eye = np.broadcast_to(np.eye(n), (m, n, n))
        inst = InstanceSet(m=m, n=n, A=eye, B=eye, seed=7)
        for s, r, p, t in ((0.5, 1.0, 1.0, 0.5), (1.5, 0.5, 2.0, 0.0), (2.0, 0.25, 1.0, 1.0)):
            params = ChainParams(s=s, r=r, p=p, t=t)
            rec, = chain_block(t_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                               [NormSpec.ky_fan(1)]).records
            assert rec["status"] == "refuted" and not rec["pass"], params
            assert rec["lhs"] == pytest.approx(m) and rec["rhs"] == pytest.approx(m ** (s * r))
            argmin = argmin_record(inst, params, NormSpec.ky_fan(1), -1.0)
            assert argmin["status"] == "refuted"
            assert point_status("t-chain", params, 1) == t_chain_status(params) != "refuted"
        for params in (ChainParams(s=1.5, r=1.0, t=0.3), ChainParams(s=1.0, r=1.0, t=0.5)):
            assert point_status("t-chain", params, m) == t_chain_status(params)
        assert point_status("main", ChainParams(), m) == "proven"

    def test_status_on_columns_is_each_points(self):
        """`point_status` and `t_chain_status` give a str at one point and,
        on (P,) columns with an m column, an array whose entry k is the
        str of point k at m[k]; a constant rule fills the columns' shape."""
        grid = [ChainParams(s=s, r=r, p=p, t=t) for s in (0.5, 1.0, 1.5, 2.0, 2.5)
                for r in (0.5, 1.0, 2.0) for p in (0.5, 1.0) for t in (0.0, 0.3, 0.5, 1.0)]
        ms = np.arange(len(grid)) % 3 + 1
        columns = ChainParams(*np.array([dataclasses.astuple(q) for q in grid]).T)
        for chain in ("t-chain", "main", "commuting-product"):
            got = point_status(chain, columns, ms)
            assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
            want = [point_status(chain, q, int(m)) for q, m in zip(grid, ms)]
            assert all(type(w) in (str, np.str_) for w in want) and got.tolist() == want
        got = t_chain_status(columns)
        assert got.tolist() == [t_chain_status(q) for q in grid]
        assert {"proven", "conjectured"} <= set(got.tolist())
        assert {"proven", "conjectured", "refuted"} == set(point_status("t-chain", columns, ms))

    def test_refuted_records_are_not_candidates(self, capsys):
        """`verify` at s = 0.5 with m = 2 fails every record, all refuted:
        no candidate, no proven failure, exit 0."""
        argv = ["verify", "--chain", "t-chain", "--n", "3", "--m", "2", "--count", "3",
                "--seed", "1", "--s", "0.5"]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "records: 18   candidates: 0"

    def test_rejects_bad_params(self):
        inst = generate_instance("generic", 2, 2, 0)
        with pytest.raises(errors.HypothesisViolation):
            t_chain_terms(inst, ChainParams(s=1.0, t=1.5))
        with pytest.raises(errors.HypothesisViolation):
            t_chain_terms(inst, ChainParams(s=-1.0))
        with pytest.raises(errors.HypothesisViolation):
            t_chain_terms(inst, ChainParams(s=float("nan")))

    @given(st.integers(0, 2000), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
           st.sampled_from([1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_proven_regime_s1_holds(self, seed, t, r, p):
        inst = generate_instance("generic", 2, 2, seed)
        params = ChainParams(s=1.0, r=r, p=p, t=t)
        assert t_chain_status(params) == "proven"
        block = chain_block(t_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                            NORMS)
        for rec in block.records:
            if not rec["gated"]:
                assert rec["pass"], (seed, t, r, p, rec["norm"], rec["margins"])

    def test_conjectured_negative_margin_is_recorded_not_raised(self):
        inst = generate_instance("generic", 2, 2, 3)
        params = ChainParams(s=1.5, t=0.5)
        rec, = chain_block(t_chain_terms(inst, params), inst.n, inst.m, [inst.seed], [params],
                           [NormSpec("trace")]).records
        assert rec["status"] == "conjectured"
        assert isinstance(rec["pass"], bool)  # no exception either way


class TestCommuting:
    def test_requires_commuting_instance(self):
        inst = generate_instance("generic", 2, 2, 0)
        for variant in ("product", "symmetrized"):
            with pytest.raises(errors.NotCommuting,
                               match="instance kind is 'generic', need 'commuting'"):
                commuting_terms(inst, variant)

    def test_rejects_unknown_variant(self):
        inst = generate_instance("commuting", 2, 2, 0)
        with pytest.raises(errors.ConfigError):
            commuting_terms(inst, "harmonic")

    @given(st.integers(0, 2000), st.sampled_from(["product", "symmetrized"]))
    @settings(max_examples=30, deadline=None)
    def test_chain_holds(self, seed, variant):
        inst = generate_instance("commuting", 2, 3, seed)
        block = chain_block(commuting_terms(inst, variant), inst.n, inst.m, [inst.seed],
                            [ChainParams(s=1.0)], NORMS)
        for rec in block.records:
            if not rec["gated"]:
                assert rec["pass"], (seed, variant, rec["norm"], rec["margins"])


class TestReporting:
    def test_condition_gating(self):
        inst = generate_instance("generic", 3, 2, 5)
        terms = main_chain_terms(inst, ChainParams())
        block = chain_block(terms, inst.n, inst.m, [inst.seed], [ChainParams()],
                            [NormSpec("trace")], condition_cap=1.5)
        rec, = block.records
        assert rec["gated"]
        assert rec["condition_max"] == pytest.approx(float(inst.spectra.condition_max[0]))

    def test_expand_norm_tokens(self):
        specs = expand_norm_tokens(["kyfan:all", "schatten:2", NormSpec("trace")], 3)
        assert specs[:3] == [NormSpec.ky_fan(1), NormSpec.ky_fan(2), NormSpec.ky_fan(3)]
        assert specs[3:] == [NormSpec.schatten(2), NormSpec("trace")]


def _bitwise_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _direct_main_sv(inst, params):
    """The main chain's terms evaluated directly, every power from its own
    decomposition: the reference the cached terms must equal bitwise.  The
    mean is A^{s/2} V diag(sigma) V* A^{s/2} with B^{s/2} A^{-s/2} =
    U diag(sigma) V*; the sandwich spectra are singular values of
    (sum B)^{b/2} (sum A)^a; Z's spectrum is the (1/2, 1) sandwich padded
    with (m - 1) n zeros."""
    s, r, p = params.s, params.r, params.p
    acc = np.zeros((inst.n, inst.n), dtype=np.complex128)
    for Ai, Bi in zip(inst.A, inst.B):
        _, sigma, vh = np.linalg.svd(matrix_power(Bi, s / 2.0) @ matrix_power(Ai, -s / 2.0))
        W, phi, _ = np.linalg.svd(matrix_power(Ai, s / 2.0) @ (vh.conj().T * sigma ** 0.5))
        acc += (W * phi ** (2.0 * r)) @ W.conj().T
    w = hermitian_eig(hermitize(acc)).eigenvalues
    lhs_sv = np.where((w < 0.0) & (w >= -1e-12 * max(w.max(), 0.0)), 0.0, w) ** 1.0

    sum_A, sum_B = (total[0] for total in inst.spectra.sums)

    def sandwich_sv(a, b, inv_p):
        F = matrix_power(sum_B, b / 2.0) @ matrix_power(sum_A, a)
        return np.linalg.svd(F, compute_uv=False) ** (2.0 * inv_p)

    mid_sv = np.concatenate([sandwich_sv(0.5, 1.0, s * r / 2.0), np.zeros((inst.m - 1) * inst.n)])
    rhs_sv = sandwich_sv(s * r * p / 4.0, s * r * p / 2.0, 1.0 / p)
    return lhs_sv, mid_sv, rhs_sv


class TestSpectraCache:
    """Terms read from one shared instance (and so from its spectra cache)
    must be bitwise equal to terms from a fresh instance per point."""

    EVALUATIONS = (
        [lambda inst, params=params: main_chain_terms(inst, params) for params in MAIN_GRID]
        + [lambda inst, s=s: geo_z_terms(inst, s) for s in (1.0, 1.5, 2.0, 3.0)]
        + [lambda inst, params=ChainParams(s=s, r=r, p=p, t=t): t_chain_terms(inst, params)
           for s in (1.5, 2.0, 3.0) for r in (1.0, 2.0) for p in (0.5, 1.0) for t in (0.3, 0.5)]
    )

    @staticmethod
    def _assert_same(cached, fresh):
        for name in ("lhs_sv", "mid_sv", "rhs_sv"):
            assert _bitwise_equal(getattr(cached, name), getattr(fresh, name)), name
        assert cached.condition_max == fresh.condition_max

    def test_values_without_parameters_are_cached_properties(self):
        """Both sums, the decompositions, the condition number and the
        commuting sides are computed on first read and kept on the spectra
        as cached properties; the memo holds only values with parameters."""
        inst = generate_instance("commuting", 3, 2, 35)
        for variant in ("product", "symmetrized"):
            commuting_terms(inst, variant)
        main_chain_terms(inst, ChainParams())
        spectra = inst.spectra
        for name in ("sums", "_eigs", "condition_max", "commuting_sv"):
            assert getattr(spectra, name) is vars(spectra)[name], name
        assert spectra._memo and all(len(key) > 1 for key in spectra._memo)

    @pytest.mark.parametrize("n, m, seed", [(1, 3, 31), (2, 2, 32), (3, 2, 33), (4, 3, 34)])
    def test_shared_instance_matches_fresh(self, n, m, seed):
        shared = generate_instance("generic", n, m, seed)
        for evaluate in self.EVALUATIONS:
            self._assert_same(evaluate(shared), evaluate(generate_instance("generic", n, m, seed)))

    @pytest.mark.parametrize("n, m, seed", [(1, 2, 39), (3, 2, 40), (4, 3, 41)])
    def test_main_terms_match_direct_formula(self, n, m, seed):
        inst = generate_instance("generic", n, m, seed)
        for params in MAIN_GRID:
            cached = main_chain_terms(inst, params)
            lhs_sv, mid_sv, rhs_sv = _direct_main_sv(inst, params)
            assert _bitwise_equal(cached.lhs_sv, lhs_sv)
            assert _bitwise_equal(cached.mid_sv, mid_sv)
            assert _bitwise_equal(cached.rhs_sv, rhs_sv)

    @pytest.mark.parametrize("n, m, seed", [(2, 2, 35), (3, 3, 36)])
    def test_commuting_shared_matches_fresh(self, n, m, seed):
        shared = generate_instance("commuting", n, m, seed)
        for variant in ("product", "symmetrized", "product"):
            fresh = generate_instance("commuting", n, m, seed)
            self._assert_same(commuting_terms(shared, variant), commuting_terms(fresh, variant))

    def test_instance_is_immutable(self):
        inst = generate_instance("generic", 2, 2, 37)
        with pytest.raises(ValueError):
            inst.A[0][0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.A = inst.B
        with pytest.raises(ValueError):
            main_chain_terms(inst, ChainParams()).lhs_sv[0] = 0.0

    def test_instance_owns_its_matrices(self):
        A0 = np.eye(2)
        inst = InstanceSet(m=1, n=2, A=[A0], B=[np.eye(2)])
        before = main_chain_terms(inst, ChainParams())
        A0[0, 0] = 5.0
        assert inst.A[0][0, 0] == 1.0
        assert _bitwise_equal(before.lhs_sv, main_chain_terms(inst, ChainParams()).lhs_sv)

    def test_eigh_count_on_main_grid(self, monkeypatch):
        """eigh and svd decompositions together stay within 4 per grid
        point, and every decomposition is n x n (none of the mn x mn Z).
        A stacked call of shape (k, n, n) counts as k decompositions."""
        calls = []

        def counting(decompose):
            def counted(a, *args, **kwargs):
                calls.append(np.shape(a))
                return decompose(a, *args, **kwargs)
            return counted

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        inst = generate_instance("generic", 3, 2, 38)
        assert len(MAIN_GRID) == 28
        for params in MAIN_GRID:
            main_chain_terms(inst, params)
        matrices = [shape[-2:] for shape in calls for _ in range(int(np.prod(shape[:-2])))]
        assert len(matrices) <= 4 * len(MAIN_GRID), len(matrices)
        assert set(matrices) == {(3, 3)}, set(calls)

    def test_eigh_count_on_main_grid_path(self, monkeypatch):
        """The grid path's twin of the test above: criterion 1's grid as
        one `grid_terms` stack stays within 4 decompositions per point, all
        n x n, because each distinct factor is decomposed once."""
        calls = []

        def counting(decompose):
            def counted(a, *args, **kwargs):
                calls.append(np.shape(a))
                return decompose(a, *args, **kwargs)
            return counted

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        inst = generate_instance("generic", 3, 2, 38)
        grid_terms(inst.spectra, "main", MAIN_GRID)
        matrices = [shape[-2:] for shape in calls for _ in range(int(np.prod(shape[:-2])))]
        assert len(matrices) <= 4 * len(MAIN_GRID), len(matrices)
        assert set(matrices) == {(3, 3)}, set(calls)


class TestStacks:
    """Spectra of stacked instances and of parameter grids."""

    def test_max_dim_of_stacked_terms(self):
        inst = generate_instance("generic", 3, 2, 50)
        terms = grid_terms(inst.spectra, "main", MAIN_GRID)
        assert terms.mid_sv.shape == (len(MAIN_GRID), 1, 6)
        assert terms.max_dim == 6
        stacked = ChainTerms("t-chain", np.ones((5, 3)), np.ones((5, 3)))
        assert stacked.max_dim == 3

    def test_non_finite_pairs_refused_without_warning(self):
        """Pairs whose sum is inf - inf are refused with NonFiniteInput by
        the one decomposition of the pairs and sums, with no numpy
        warning from the sum."""
        A = np.stack([np.eye(2), np.eye(2)]).astype(np.complex128)
        A[0, 0, 1] = A[0, 1, 0] = np.inf
        A[1, 0, 1] = A[1, 1, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.NonFiniteInput):
                InstanceSpectra(A, A.copy(), [2]).condition_max

    def test_z_sv_of_a_stack(self):
        """Z's spectrum on a stack of instances, one exponent each: every
        row is bitwise the instance's own, zeros included."""
        insts = [generate_instance("generic", 2, 3, seed) for seed in (51, 52, 53)]
        spectra = _stack_of(insts)
        x = np.array([1.0, 1.5, 0.5])
        got = spectra.z_sv(x)
        assert got.shape == (3, 6)
        for row, inst, xk in zip(got, insts, x.tolist()):
            fresh = generate_instance("generic", 2, 3, inst.seed)
            assert _bitwise_equal(row, fresh.spectra.z_sv(xk)[0])
        assert _bitwise_equal(spectra.z_sv(1.0)[1], insts[1].spectra.z_sv(1.0)[0])


_S = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0])
_R = st.sampled_from([0.5, 1.0, 1.5, 2.0])
_P = st.sampled_from([0.5, 1.0, 2.0])
_T = st.sampled_from([0.0, 0.3, 0.5, 1.0])
_TOKENS = st.sampled_from(["kyfan:all", "kyfan:1", "kyfan:3", "schatten:1", "schatten:2.5",
                           "schatten:inf", "operator", "trace", "frobenius"])


def _oracle_chain_records(terms, inst, params, norms, tol_rel=1e-8, condition_cap=1e8):
    """The one-point record builder that the grid block builder replaced, kept
    frozen: 1-D spectra, one `norm_values` call per term, one record per
    norm of `norms` in the order given."""
    lhs, rhs = norm_values(terms.lhs_sv, norms), norm_values(terms.rhs_sv, norms)
    mid = None if terms.mid_sv is None else norm_values(terms.mid_sv, norms)
    margins, _, _, passed = chain_margins(lhs, mid, rhs, tol_rel)
    head = {"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": terms.chain_id,
            "instance_seed": inst.seed, "n": inst.n, "m": inst.m,
            "params": {k: float(v) for k, v in params.as_dict().items()}}
    cond = terms.condition_max
    if terms.chain_id != "t-chain":
        status = "proven"
    elif inst.m >= 2 and params.s * params.r < 1.0:
        status = "refuted"
    else:
        status = t_chain_status(params)
    tail = {"gated": bool(cond > condition_cap), "status": status,
            "condition_max": "inf" if math.isinf(cond) else float(cond)}
    mids = [None] * len(norms) if mid is None else mid.tolist()
    rows = zip(norms, lhs.tolist(), mids, rhs.tolist(), zip(*(v.tolist() for v in margins)),
               passed.tolist())
    return [{**head, "norm": norm.to_record(), "lhs": lo, "mid": mi, "rhs": hi,
             "margins": list(mg), "pass": ok, **tail} for norm, lo, mi, hi, mg, ok in rows]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2 ** 32),
       s_=st.lists(_S, min_size=1, max_size=3), r_=st.lists(_R, min_size=1, max_size=3),
       p_=st.lists(_P, min_size=1, max_size=3), t_=st.lists(_T, min_size=1, max_size=3),
       tokens=st.lists(_TOKENS, min_size=1, max_size=5))
def test_grid_records_match_point_by_point(n, m, seed, s_, r_, p_, t_, tokens):
    """Records of a whole grid (one `grid_terms` stack, one `chain_block`
    call) equal, bitwise, those of the per-point `*_terms` on a fresh
    instance and the frozen one-point builder over the norms in report
    order, over grids with repeated values, the s = 1, 2 and t = 0, 1
    boundaries and norm lists in any order.  The three chains share one
    instance, and so the rows each grid leaves in its memo."""
    grids = {
        "main": [ChainParams(s=s, r=r, p=p) for s in s_ if s >= 2.0 for r in r_ if r >= 1.0
                 for p in p_ if r * p >= 1.0],
        "geo-z": [ChainParams(s=s, r=1.0, p=1.0) for s in s_],
        "t-chain": [ChainParams(s=s, r=r, p=p, t=t) for s in s_ for r in r_ for p in p_
                    for t in t_],
    }
    point_terms = {"main": main_chain_terms, "t-chain": t_chain_terms,
                   "geo-z": lambda inst, q: geo_z_terms(inst, q.s)}
    inst = generate_instance("generic", n, m, seed)
    for chain, grid in grids.items():
        if not grid:
            continue
        terms = grid_terms(inst.spectra, chain, grid)
        norms = expand_norm_tokens(tokens, terms.max_dim)
        got = [dumps(rec) for rec in chain_block(terms, n, m, [inst.seed], grid, norms).records]
        want = []
        for q in grid:
            fresh = generate_instance("generic", n, m, seed)
            want.extend(dumps(rec) for rec in _oracle_chain_records(
                point_terms[chain](fresh, q), fresh, q, order_norms(norms)))
        assert got == want, chain


# Grids of each parameter chain for the stacked-instance tests: the s = 1, 2
# and t = 0, 1 boundaries, a fast-path exponent and, for the weighted chain,
# points with sr < 1.
STACK_GRIDS = {
    "main": [ChainParams(s=2.0, r=1.0, p=1.0), ChainParams(s=3.0, r=2.0, p=0.5),
             ChainParams(s=2.5, r=1.0, p=2.0)],
    "geo-z": [ChainParams(s=1.0, r=1.0, p=1.0), ChainParams(s=1.5, r=1.0, p=1.0)],
    "t-chain": [ChainParams(s=0.5, r=1.0, p=1.0, t=0.5), ChainParams(s=1.5, r=1.0, p=2.0, t=0.3),
                ChainParams(s=2.0, r=0.5, p=1.0, t=0.0), ChainParams(s=1.0, r=2.0, p=0.5, t=1.0)],
}


def _stack_of(insts: list) -> InstanceSpectra:
    """The spectra of the stack of instances `insts` of one n, their pairs
    laid end to end."""
    return InstanceSpectra(np.concatenate([i.A for i in insts]),
                           np.concatenate([i.B for i in insts]), [i.m for i in insts])


def _scaled(insts: list, c, d, U=None) -> InstanceSpectra:
    """The stack of `insts` with c A and d B for every pair of every
    instance, after the congruence X -> U X U* when U is given."""
    def map_(X, factor):
        if U is not None:
            X = hermitize(U @ X @ U.conj().T)
        return factor * X
    return _stack_of([InstanceSet(m=i.m, n=i.n, A=map_(i.A, c), B=map_(i.B, d), seed=i.seed)
                      for i in insts])


def _side_spectra(terms: ChainTerms) -> list:
    return [sv for sv in (terms.lhs_sv, terms.mid_sv, terms.rhs_sv) if sv is not None]


class TestStackedInstances:
    """A stack of K instances of one m (an `InstanceSpectra`): grids
    evaluated on it at once, with one terms call per chain."""

    @pytest.mark.parametrize("n, m, count", [(1, 1, 3), (2, 3, 1), (2, 3, 3), (4, 2, 4)])
    def test_rows_are_each_instance_alone(self, n, m, count):
        """Row (k, i) of a stacked grid is bitwise the terms of point k on
        instance i alone, row (0, i) of a stacked commuting variant those
        of instance i alone, and each instance keeps its condition
        number."""
        def assert_rows(stacked, at, alone, alone_at):
            for name in ("lhs_sv", "mid_sv", "rhs_sv"):
                have, want = getattr(stacked, name), getattr(alone, name)
                assert _bitwise_equal(None if have is None else have[at],
                                      None if want is None else want[alone_at]), name
            assert stacked.condition_max[at[-1]] == np.ravel(alone.condition_max)[0]

        for kind in ("generic", "commuting"):
            insts = [generate_instance(kind, n, m, 90 + i) for i in range(count)]
            stack = _stack_of(insts)
            for i, inst in enumerate(insts):
                fresh = generate_instance(kind, n, m, inst.seed)
                if kind == "commuting":
                    for variant in ("product", "symmetrized"):
                        assert_rows(grid_terms(stack, f"commuting-{variant}",
                                               [ChainParams(s=1.0)]), (0, i),
                                    commuting_terms(fresh, variant), ())
                    continue
                for chain, grid in STACK_GRIDS.items():
                    terms = grid_terms(stack, chain, grid)
                    assert terms.lhs_sv.shape[:2] == (len(grid), count)
                    for k, q in enumerate(grid):
                        assert_rows(terms, (k, i), grid_terms(fresh.spectra, chain, [q]), (0, 0))

    def test_grid_and_instance_rows_told_apart_when_p_equals_k(self):
        """On a stack of three instances, (3, 1) exponents are grid columns
        and three grid points, giving (3, 3, d) spectra; (3,) exponents are
        the hunt's one point per instance, which take the diagonal of that
        grid from the same arrays."""
        insts = [generate_instance("generic", 2, 2, 95 + i) for i in range(3)]
        stack = _stack_of(insts)
        x = np.array([0.5, 1.0, 1.5])
        grid = stack.z_sv(x[:, None])
        per_instance = stack.z_sv(x)
        assert grid.shape == (3, 3, 4) and per_instance.shape == (3, 4)
        for k in range(3):
            assert _bitwise_equal(grid[k, k], per_instance[k])
            for i, inst in enumerate(insts):
                assert _bitwise_equal(grid[k, i], inst.spectra.z_sv(float(x[k]))[0])

    @pytest.mark.parametrize("n, m", [(1, 2), (3, 2), (2, 3)])
    def test_identity_instance_closed_form(self, n, m):
        """A_i = B_i = I, placed as the middle row of a stack of random
        instances: every lhs singular value is m, every rhs value (and the
        nonzero part of Z^{sr/2}) is m^{sr}, so rho = max_k KF_k(lhs) /
        KF_k(rhs) = m^{1 - sr}, also at sr < 1, where the weighted chain
        fails.  The random rows are those of their instances alone."""
        eye = np.broadcast_to(np.eye(n), (m, n, n))
        identity = InstanceSet(m=m, n=n, A=eye, B=eye, seed=7)
        insts = [generate_instance("generic", n, m, 96), identity,
                 generate_instance("generic", n, m, 97)]
        stack = _stack_of(insts)
        for chain, grid in STACK_GRIDS.items():
            terms = grid_terms(stack, chain, grid)
            for k, q in enumerate(grid):
                sr = q.s * q.r
                lhs, rhs = terms.lhs_sv[k, 1], terms.rhs_sv[k, 1]
                np.testing.assert_allclose(lhs, m, rtol=1e-12)
                nonzero = rhs[:n]
                np.testing.assert_allclose(nonzero, m ** sr, rtol=1e-12)
                assert not rhs[n:].any()
                if terms.mid_sv is not None:
                    np.testing.assert_allclose(terms.mid_sv[k, 1, :n], m ** sr, rtol=1e-12)
                    assert not terms.mid_sv[k, 1, n:].any()
                size = max(lhs.size, rhs.size)
                ky_fan = [np.cumsum(np.pad(sv, (0, size - sv.size))) for sv in (lhs, rhs)]
                rho = np.max(ky_fan[0] / ky_fan[1])
                assert rho == pytest.approx(m ** (1.0 - sr), rel=1e-12), (chain, q)
                for i in (0, 2):
                    alone = grid_terms(generate_instance("generic", n, m, insts[i].seed).spectra,
                                       chain, [q])
                    assert _bitwise_equal(terms.lhs_sv[k, i], alone.lhs_sv[0, 0])
                    assert _bitwise_equal(terms.rhs_sv[k, i], alone.rhs_sv[0, 0])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2 ** 32),
           c=st.floats(0.1, 10.0), d=st.floats(0.1, 10.0))
    def test_homogeneity(self, n, m, seed, c, d):
        """A -> cA and B -> dB scale every term of a stack, at every grid
        point, by c^{(1-t)sr} d^{tsr} (Z^{sr/2} by (cd)^{sr/2}), to 1e-9 of
        the largest singular value."""
        insts = [generate_instance("generic", n, m, derive_seed(seed, i)) for i in range(3)]
        stack, scaled = _stack_of(insts), _scaled(insts, c, d)
        for chain, grid in STACK_GRIDS.items():
            base, got = grid_terms(stack, chain, grid), grid_terms(scaled, chain, grid)
            for k, q in enumerate(grid):
                t = 0.5 if chain != "t-chain" else q.t
                sr = q.s * q.r
                factor = c ** ((1.0 - t) * sr) * d ** (t * sr)
                for want, have in zip(_side_spectra(base), _side_spectra(got)):
                    want = factor * want[k]
                    np.testing.assert_allclose(have[k], want, rtol=0, atol=1e-9 * want.max())

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
    def test_unitary_congruence_invariance(self, n, m, seed):
        """X -> U X U* for every A_i and B_i of every instance, with one
        unitary U, leaves every term's spectrum unchanged, to 1e-9 of the
        largest singular value."""
        insts = [generate_instance("generic", n, m, derive_seed(seed, i)) for i in range(3)]
        U = haar_unitary(n, seed)
        stack, turned = _stack_of(insts), _scaled(insts, 1.0, 1.0, U)
        for chain, grid in STACK_GRIDS.items():
            base, got = grid_terms(stack, chain, grid), grid_terms(turned, chain, grid)
            for want, have in zip(_side_spectra(base), _side_spectra(got)):
                scale = want.max(axis=-1, keepdims=True)
                assert np.all(np.abs(have - want) <= 1e-9 * scale), chain

    def test_commutator_checked_per_instance(self):
        """One non-commuting pair in one instance of a commuting stack is
        refused, with the message a lone instance gets."""
        insts = [generate_instance("commuting", 2, 2, 98 + i) for i in range(3)]
        B = np.stack([i.B for i in insts])
        B[1, 0] = generate_instance("generic", 2, 1, 99).B[0]
        bad = InstanceSpectra(np.concatenate([i.A for i in insts]), B.reshape(-1, 2, 2), [2] * 3)
        alone = InstanceSet(m=2, n=2, A=insts[1].A, B=B[1], seed=99, kind="commuting")
        with pytest.raises(errors.NotCommuting) as lone:
            commuting_terms(alone, "product")
        with pytest.raises(errors.NotCommuting, match=r"pair commutator norm .* exceeds 1\.0e-12 \* ") \
                as stacked:
            grid_terms(bad, "commuting-product", [ChainParams(s=1.0)])
        assert str(stacked.value) == str(lone.value)
        Ai, Bi = insts[1].A[0], B[1, 0]  # the pair-by-pair loop the check replaced
        defect = np.linalg.norm(Ai @ Bi - Bi @ Ai)
        scale = np.linalg.norm(Ai) * np.linalg.norm(Bi)
        assert str(lone.value) == f"pair commutator norm {defect:.3e} exceeds 1.0e-12 * {scale:.3e}"
        grid_terms(_stack_of([insts[0], insts[2]]), "commuting-symmetrized", [ChainParams(s=1.0)])
