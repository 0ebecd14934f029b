import functools
import json
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmineq import cli, errors, sweep
from gmineq.chains import ChainParams, commuting_terms, geo_z_terms, main_chain_terms, t_chain_terms
from gmineq.generate import SpectrumLaw, derive_seed, generate_instance, splitmix64
from gmineq.highprec import t_chain_margin
from gmineq.hunt import SearchConfig, _sample_points, evaluate_argmin, hunt
from gmineq.lemmas import LEMMA_IDS
from gmineq.norms import NormSpec
from gmineq.reports import (
    SCHEMA_VERSION,
    build_report_set,
    chain_block,
    dumps,
    has_proven_failure,
    read_reports,
    record_sort_key,
    write_reports,
)
from gmineq.sweep import KNOWN_CHAINS, SweepConfig, _chain_table, run_sweep

GOLDEN = pathlib.Path(__file__).with_name("golden") / "sweep_n3_m3.jsonl"


class TestSeeds:
    def test_splitmix64_stability(self):
        # reference values of the splitmix64 finalizer
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derive_seed_is_stable_and_spread(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7) != derive_seed(43, 7)


class TestGeneration:
    def test_bit_identical(self):
        i1 = generate_instance("generic", 3, 2, 123)
        i2 = generate_instance("generic", 3, 2, 123)
        for a, b in zip([*i1.A, *i1.B], [*i2.A, *i2.B]):
            np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        i1 = generate_instance("generic", 3, 2, 123)
        i2 = generate_instance("generic", 3, 2, 124)
        assert not np.array_equal(i1.A[0], i2.A[0])

    def test_commuting_kind_commutes(self):
        inst = generate_instance("commuting", 4, 3, 5)
        inst.validate()

    def test_spectrum_law_bounds(self):
        law = SpectrumLaw(0.5, 2.0)
        lam = law.sample(np.linspace(0.0, 1.0 - 2.0 ** -53, 1000))
        assert lam.min() >= 0.5 and lam.max() <= 2.0

    def test_spectrum_law_draws_are_the_log_uniform_formula(self):
        # the law keeps its log bounds; every draw, the first and the later
        # ones, has the bits of the formula evaluated afresh
        law = SpectrumLaw(1e-3, 7.5)
        for size in (1, 5, 40):
            u = np.arange(size) / 40.0
            expected = np.exp(np.log(law.lo) + (np.log(law.hi) - np.log(law.lo)) * u)
            assert law.sample(u).tobytes() == expected.tobytes()

    def test_law_round_trip(self):
        law = SpectrumLaw(0.25, 4.0)
        assert SpectrumLaw.from_dict(law.to_dict()) == law

    def test_law_validation(self):
        for lo, hi in ((-1.0, 2.0), (0.1, float("inf")), (float("inf"), float("inf"))):
            with pytest.raises(errors.InvalidSpectrumLaw):
                SpectrumLaw(lo, hi)
        with pytest.raises(errors.InvalidSpectrumLaw):
            SpectrumLaw.from_dict({"law": "gaussian", "lo": 1, "hi": 2})


class TestDeterministicJson:
    def test_float_round_trip(self):
        for x in [0.1, 1.0 / 3.0, 1e-300, 2.0 ** 52 + 1, -1.5e-8]:
            assert json.loads(dumps(x)) == x

    def test_infinity_encoding(self):
        assert dumps(float("inf")) == '"inf"'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    @given(st.text(st.characters(exclude_categories=())))
    @settings(max_examples=300, deadline=None)
    def test_strings_quoted_as_json_dumps(self, text):
        """Non-ASCII text, quotes, backslashes and control characters,
        as a value and as a key."""
        assert dumps(text) == json.dumps(text)
        assert dumps({text: 1}) == json.dumps({text: 1}, separators=(",", ":"))


SMALL = dict(chains=["main", "geo-z", "t-chain", "commuting", "lemmas"],
             n_values=[2], m_values=[2], instance_count=3, base_seed=11,
             s_values=[1.0, 2.0], r_values=[1.0], p_values=[1.0], t_values=[0.5],
             norms=["kyfan:all", "schatten:2"])


class TestSweep:
    def test_config_round_trip(self):
        cfg = SweepConfig(**SMALL)
        assert SweepConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_config_rejects_unknown_key(self):
        with pytest.raises(errors.ConfigError):
            SweepConfig.from_dict({"chainz": ["main"]})

    def test_config_validation(self):
        with pytest.raises(errors.ConfigError):
            SweepConfig(chains=["bogus"]).validate()
        with pytest.raises(errors.ConfigError):
            SweepConfig(n_values=[0]).validate()
        with pytest.raises(errors.ConfigError):
            SweepConfig(condition_cap=0.5).validate()
        with pytest.raises(errors.ConfigError):
            SweepConfig(lemma_ids=["Cauchy"]).validate()

    @pytest.mark.parametrize("bad", [
        {"n_values": 3}, {"m_values": "2"}, {"s_values": 2.0}, {"r_values": None},
        {"p_values": (1.0,)}, {"t_values": 0.5}, {"norms": "kyfan:all"},
        {"chains": "main"}, {"lemma_ids": "weyl"}, {"n_values": [2.5]},
        {"m_values": [True]}, {"instance_count": 1.5}, {"r_values": ["1"]},
        {"condition_cap": "1e8"}, {"base_seed": 1.5}, {"tol_rel": "x"}, {"norms": [3]},
        {"spectrum_law": 3}, {"spectrum_law": {"lo": "a", "hi": 2}},
        {"tol_rel": -1.0}, {"tol_rel": float("inf")}, {"tol_rel": float("nan")},
        {"norms": []}, {"norms": ["bogus"]}, {"norms": ["kyfan:x"]},
        {"s_values": [2.0, float("nan")]}, {"t_values": [0.5, float("nan")]},
    ])
    def test_config_type_validation(self, bad):
        with pytest.raises(errors.ConfigError):
            SweepConfig.from_dict(bad)

    @pytest.mark.parametrize("chains", [["main", "main"], ["lemmas", "commuting", "lemmas"]])
    def test_chain_listed_twice_rejected(self, chains):
        """A chain listed twice would be evaluated and written twice."""
        cfg = SweepConfig(chains=chains, instance_count=2, norms=["trace"])
        for call in (cfg.validate, lambda: run_sweep(cfg)):
            with pytest.raises(errors.ConfigError, match=f"chain '{chains[-1]}' is listed twice"):
                call()

    @pytest.mark.parametrize("name, values", [
        ("s_values", [2.0, 2.0]), ("r_values", [1, 2.0, 1.0]), ("p_values", [1.0, 1.0]),
        ("t_values", [0.3, 0.5, 0.3]),
    ])
    def test_value_listed_twice_rejected(self, name, values):
        """A repeated s, r, p or t value would evaluate and write its grid
        points twice."""
        cfg = SweepConfig(chains=["main", "t-chain"], instance_count=2, norms=["trace"],
                          **{name: values})
        for call in (cfg.validate, lambda: run_sweep(cfg)):
            with pytest.raises(errors.ConfigError, match=rf"{name} lists {values[-1]!r} twice"):
                call()

    @pytest.mark.parametrize("lemma_ids", [["Araki", "Araki"], ["GramSwap", "Hoelder", "GramSwap"]])
    def test_lemma_id_listed_twice_rejected(self, lemma_ids, tmp_path, capsys):
        """A repeated lemma id would write its blocks twice (a case seed
        numbers the id's place in LEMMA_IDS, so both copies draw the same
        cases); the CLI exits 3 with one line and writes no report."""
        config = {"chains": ["lemmas"], "lemma_ids": lemma_ids, "instance_count": 2}
        message = f"lemma_ids lists {lemma_ids[-1]!r} twice"
        cfg = SweepConfig(**config)
        for call in (cfg.validate, lambda: run_sweep(cfg)):
            with pytest.raises(errors.ConfigError, match=message):
                call()
        path, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
        path.write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("norms, twice", [
        (["trace", "trace"], "trace"), (["Trace", "trace "], "trace "),
        (["kyfan:2", "schatten:2", "kyfan:all"], "kyfan:all"),
        (["kyfan:all", "KyFan:3"], "KyFan:3"), (["kyfan:all", "kyfan:all"], "kyfan:all"),
        ([NormSpec.operator(), "operator"], "operator"),
    ])
    def test_norm_listed_twice_rejected(self, norms, twice):
        """A norm listed twice (kyfan:k beside kyfan:all among them) would
        write each of its records twice."""
        cfg = SweepConfig(chains=["main"], instance_count=2, norms=norms)
        for call in (cfg.validate, lambda: run_sweep(cfg)):
            with pytest.raises(errors.ConfigError, match=f"norm {re.escape(repr(twice))} is listed"):
                call()
        SweepConfig(norms=["kyfan:2", "schatten:1", "trace", "schatten:inf", "operator"]).validate()

    @pytest.mark.parametrize("chain, bad, needs", [
        ("main", {"s_values": [1.5]}, "s >= 2"),
        ("geo-z", {"s_values": [0.5]}, "s >= 1"),
        ("t-chain", {"t_values": [1.5]}, "t in [0, 1]"),
        ("lemmas", {"lemma_ids": []}, "lemma id"),
    ])
    def test_empty_grid_rejected(self, chain, bad, needs):
        with pytest.raises(errors.ConfigError, match=rf"chain '{chain}'.*{re.escape(needs)}"):
            SweepConfig(chains=["commuting", chain], **bad).validate()

    @settings(max_examples=50, deadline=None)
    @given(s_=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), max_size=4),
           r_=st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]), max_size=3),
           p_=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), max_size=3),
           t_=st.lists(st.sampled_from([-0.1, 0.0, 0.3, 1.0, 1.5]), max_size=3),
           generator=st.sampled_from(["generic", "commuting"]))
    def test_grids_filter_the_configured_product(self, s_, r_, p_, t_, generator):
        """Each grid chain's grid is the configured product filtered by its
        one hypothesis, equal, in order, to the chains' stated filters, on
        the configured generator's instances; "commuting" selects the two
        commuting ids, each at s = r = p = 1 on commuting instances."""
        cfg = SweepConfig(generator=generator, s_values=s_, r_values=r_, p_values=p_,
                          t_values=t_)
        want = {
            "main": [ChainParams(s=s, r=r, p=p) for s in s_ if s >= 2.0 for r in r_ if r >= 1.0
                     for p in p_ if p > 0.0 and r * p >= 1.0],
            "geo-z": [ChainParams(s=s, r=1.0, p=1.0) for s in s_ if s >= 1.0],
            "t-chain": [ChainParams(s=s, r=r, p=p, t=t) for s in s_ if s > 0.0
                        for r in r_ if r > 0.0 for p in p_ if p > 0.0
                        for t in t_ if 0.0 <= t <= 1.0],
        }
        table = _chain_table(cfg)
        assert {chain: table[chain][2] for chain in want} == want
        assert {chain: table[chain][0] for chain in want} == dict.fromkeys(want, generator)
        commuting = {cid: (kind, grid) for cid, (kind, _, grid, chain) in table.items()
                     if chain == "commuting"}
        assert commuting == dict.fromkeys(["commuting-product", "commuting-symmetrized"],
                                          ("commuting", [ChainParams(s=1.0)]))

    def test_known_chains_come_from_the_table(self, capsys):
        """The configured chains, and so the CLI's --chain choices, are the
        chain table's in its order, then "lemmas"."""
        assert KNOWN_CHAINS == ("main", "geo-z", "t-chain", "commuting", "lemmas")
        assert cli.main(["verify", "--chain", "bogus"]) == cli.EXIT_CONFIG
        assert ("choose from 'main', 'geo-z', 't-chain', 'commuting', 'lemmas'"
                in capsys.readouterr().err)

    def test_chain_points_pinned(self):
        """SMALL's chain records, rebuilt point by point: main only at
        s = 2, geo-z with r = p = 1, t-chain at s = 1 and 2, commuting with
        s = r = p = 1 on a commuting instance of the same seed."""
        def norms(dim):
            return [NormSpec.ky_fan(k) for k in range(1, dim + 1)] + [NormSpec.schatten(2)]

        blocks = []
        for i in range(3):
            seed = derive_seed(11, i)
            generic = generate_instance("generic", 2, 2, seed)
            commuting = generate_instance("commuting", 2, 2, seed)
            main = ChainParams(s=2.0, r=1.0, p=1.0)
            n, m, seeds = generic.n, generic.m, [generic.seed]
            blocks.append(chain_block(main_chain_terms(generic, main), n, m, seeds, [main], norms(4)))
            for s in (1.0, 2.0):
                blocks.append(chain_block(geo_z_terms(generic, s), n, m, seeds,
                                          [ChainParams(s=s, r=1.0, p=1.0)], norms(4)))
            for s in (1.0, 2.0):
                weighted = ChainParams(s=s, r=1.0, p=1.0, t=0.5)
                blocks.append(chain_block(t_chain_terms(generic, weighted), n, m, seeds, [weighted],
                                          norms(2)))
            for variant in ("product", "symmetrized"):
                blocks.append(chain_block(commuting_terms(commuting, variant), n, m,
                                          [commuting.seed], [ChainParams(s=1.0)], norms(2)))
        want = build_report_set(blocks).records
        got = [rec for rec in run_sweep(SweepConfig(**SMALL)).records if rec["kind"] == "chain"]
        assert len(want) == 3 * (5 + 2 * 5 + 2 * 3 + 2 * 3)
        assert got == want

    def test_shape_stack_lapack_calls(self, monkeypatch):
        """A shape whose K = 1, 2 or 4 tasks run as one stack makes the same
        eigh and svd calls for every K, and decomposes K times the matrices
        of one task: every chain's terms are one call per (chain, n, m)."""
        config = dict(SMALL, n_values=[3], s_values=[1.5, 2.0], t_values=[0.3, 0.5])
        calls = []

        def counted(decompose):
            def call(a, *args, **kwargs):
                calls.append(np.shape(a)[:-2])
                return decompose(a, *args, **kwargs)
            return call

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        counts = {}
        for K in (1, 2, 4):
            calls.clear()
            run_sweep(SweepConfig(**dict(config, instance_count=K)))
            counts[K] = (len(calls), sum(int(np.prod(lead)) for lead in calls))
        assert counts[2][0] == counts[4][0] == counts[1][0]
        assert counts[2][1] == 2 * counts[1][1] and counts[4][1] == 4 * counts[1][1]

    def test_one_stream_call_per_shape(self, monkeypatch):
        """A shape's instances of each kind are drawn by one
        `draw_instances` call, and its cases of each lemma id by one
        `random_cases` call, each of all its K task seeds."""
        calls = []

        def counted(name, draw, at):
            def call(*args):
                calls.append((name, len(args[at])))  # the seeds
                return draw(*args)
            return call

        for name, at in (("draw_instances", 3), ("random_cases", 1)):
            monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name), at))
        run_sweep(SweepConfig(**SMALL))
        K = SMALL["instance_count"]
        assert calls == [("draw_instances", K)] * 2 + [("random_cases", K)] * len(LEMMA_IDS)

    @settings(max_examples=25, deadline=None)
    @given(chains=st.lists(st.sampled_from(KNOWN_CHAINS), min_size=1, unique=True),
           n_values=st.lists(st.integers(1, 2), min_size=1, max_size=3),
           m_values=st.lists(st.integers(1, 2), min_size=1, max_size=2),
           lemma_ids=st.lists(st.sampled_from(LEMMA_IDS), min_size=1, max_size=3, unique=True),
           generator=st.sampled_from(["generic", "commuting"]), per_shape=st.integers(1, 4))
    def test_block_keys_distinct(self, chains, n_values, m_values, lemma_ids, generator,
                                 per_shape):
        """A validated sweep's term sets (one trace record each) have
        pairwise distinct keys, also with a repeated n and on commuting
        instances, so sorting its rows by key puts every record in place (a
        repeated lemma id is refused)."""
        cfg = SweepConfig(chains=chains, n_values=n_values, m_values=m_values,
                          instance_count=per_shape * len(n_values) * len(m_values),
                          generator=generator, s_values=[1.5, 2.0], t_values=[0.3, 0.5],
                          norms=["trace"], lemma_ids=lemma_ids)
        keys = [record_sort_key(rec)[:3] for rec in run_sweep(cfg).records]
        assert keys and len(set(keys)) == len(keys)

    SUBSET = dict(n_values=[1, 2], m_values=[1, 2], instance_count=4, s_values=[1.5, 2.0],
                  t_values=[0.3, 0.5], norms=["trace"])

    @staticmethod
    @functools.cache
    def _full_records():
        return run_sweep(SweepConfig(chains=list(KNOWN_CHAINS), **TestSweep.SUBSET)).records

    @settings(max_examples=12, deadline=None)
    @given(chains=st.lists(st.sampled_from(KNOWN_CHAINS), min_size=1, unique=True),
           lemma_ids=st.lists(st.sampled_from(LEMMA_IDS), min_size=1, unique=True))
    @example(chains=["lemmas"], lemma_ids=["GramSwap"])
    def test_records_independent_of_listed_ids(self, chains, lemma_ids):
        """Every record of a config that lists some of the chains and lemma
        ids is byte-equal to its record in the config that lists them all:
        a case seed numbers its lemma id's place in LEMMA_IDS, not in the
        config's list."""
        table = _chain_table(SweepConfig(**self.SUBSET))
        want = [rec for rec in self._full_records()
                if table[rec.get("chain_id", "lemmas")][3] in chains
                and rec.get("lemma_id", lemma_ids[0]) in lemma_ids]
        got = run_sweep(SweepConfig(chains=chains, lemma_ids=lemma_ids, **self.SUBSET)).records
        assert got and dumps(got) == dumps(want)

    def test_records_independent_of_group_size(self):
        """A task's records, of every chain and both commuting variants, are
        byte-equal whether 1, 2 or 4 tasks share its (n, m) stack."""
        config = dict(SMALL, n_values=[1, 3], m_values=[2], s_values=[1.5, 2.0],
                      t_values=[0.3, 0.5])
        runs = [run_sweep(SweepConfig(**dict(config, instance_count=count))).records
                for count in (1, 3, 8)]
        assert {rec.get("chain_id") for rec in runs[2]} >= {
            "main", "geo-z", "t-chain", "commuting-product", "commuting-symmetrized"}
        for small in runs[:2]:
            seeds = {rec["instance_seed"] for rec in small}
            assert dumps([rec for rec in runs[2] if rec["instance_seed"] in seeds]) == dumps(small)

    def test_serial_equals_concurrent(self, tmp_path):
        cfg = SweepConfig(**SMALL)
        rs1 = run_sweep(cfg, workers=1)
        rs2 = run_sweep(cfg, workers=4)
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports(rs1, f1)
        write_reports(rs2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_byte_identical(self, tmp_path):
        rs = run_sweep(SweepConfig(**SMALL))
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports(rs, f1)
        write_reports(read_reports(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_no_proven_failures(self):
        rs = run_sweep(SweepConfig(**SMALL))
        assert not has_proven_failure(rs)
        assert rs.summary["total_records"] == len(rs.records)

    def test_schema_mismatch(self, tmp_path):
        f = tmp_path / "bad.jsonl"
        f.write_text('{"schema_version": 99, "kind": "chain"}\n')
        with pytest.raises(errors.SchemaVersionMismatch):
            read_reports(f)


class TestHunt:
    CFG = dict(base_seed=3, samples=40, s_range=(1.0, 2.0), t_range=(0.5, 0.5),
               n_max=3, m_max=2, norms=["kyfan:all"])

    def test_reproducible(self, tmp_path):
        r1 = hunt(SearchConfig(**self.CFG))
        r2 = hunt(SearchConfig(**self.CFG))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        write_reports(r1, f1)
        write_reports(r2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_argmin_reevaluates_to_same_margin(self, tmp_path):
        r = hunt(SearchConfig(**self.CFG))
        f = tmp_path / "r.json"
        write_reports(r, f)
        loaded = read_reports(f)
        assert evaluate_argmin(loaded) == pytest.approx(r.min_margin, rel=1e-9, abs=1e-12)

    def test_argmin_gated_over_cap(self):
        r = hunt(SearchConfig(**self.CFG))
        assert evaluate_argmin(r, condition_cap=1e8) is not None
        # every condition number is >= 1, so a cap below 1 gates every point
        assert evaluate_argmin(r, condition_cap=0.5) is None

    def test_refinement_never_worsens(self):
        base = hunt(SearchConfig(**self.CFG))
        refined = hunt(SearchConfig(refine_steps=5, **self.CFG))
        assert refined.min_margin <= base.min_margin + 1e-15

    def test_proven_region_clean(self):
        cfg = SearchConfig(base_seed=5, samples=30, s_range=(2.0, 2.0),
                           t_range=(0.5, 0.5), n_max=3, m_max=2)
        r = hunt(cfg)
        assert r.min_margin >= -1e-8
        assert not r.candidate

    def test_config_validation(self):
        with pytest.raises(errors.ConfigError):
            SearchConfig(samples=0).validate()
        with pytest.raises(errors.ConfigError):
            SearchConfig(t_range=(0.2, 1.5)).validate()
        with pytest.raises(errors.ConfigError):
            SearchConfig(s_range=(2.0, 1.0)).validate()

    @pytest.mark.parametrize("bad", [
        {"samples": 10.0}, {"samples": "10"}, {"refine_steps": 1.5}, {"n_max": True},
        {"m_max": None}, {"refine_scale": "0.1"}, {"s_range": 1.5}, {"s_range": (1.0,)},
        {"t_range": (0.5, "0.5")}, {"r_values": []}, {"r_values": [-1.0]}, {"p_values": [0.0]},
        {"p_values": 1.0}, {"r_values": [float("nan")]}, {"p_values": ["1"]},
        {"condition_cap": "1e8"}, {"tol_rel": "x"}, {"base_seed": 1.5}, {"norms": [3]},
        {"spectrum_law": (0.1, 10)}, {"condition_cap": 0.5},
        {"tol_rel": -1.0}, {"tol_rel": float("inf")}, {"tol_rel": float("nan")},
        {"norms": []}, {"norms": ["bogus"]}, {"norms": ["kyfan:x"]},
    ])
    def test_config_type_validation(self, bad):
        with pytest.raises(errors.ConfigError):
            SearchConfig(**bad).validate()


class TestHighPrecision:
    def test_matches_double_precision_margin(self):
        inst = generate_instance("generic", 2, 2, 77)
        params = ChainParams(s=1.5, r=1.0, p=1.0, t=0.5)
        from gmineq.chains import t_chain_terms
        from gmineq.norms import NormSpec, norm_from_sv

        terms = t_chain_terms(inst, params)
        spec = NormSpec.trace()
        lhs = norm_from_sv(terms.lhs_sv, spec, pad=True)
        rhs = norm_from_sv(terms.rhs_sv, spec, pad=True)
        double = (rhs - lhs) / max(1.0, rhs)
        high = t_chain_margin(inst.A, inst.B, params, spec)
        assert high == pytest.approx(double, abs=1e-10)


class TestCli:
    def test_verify_ok(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code = cli.main(["verify", "--chain", "geo-z", "--count", "2", "--s", "1.5",
                         "--n", "2", "--m", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.exists()
        assert "records:" in capsys.readouterr().out

    def test_sweep_and_show_csv(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(SMALL, instance_count=2)))
        out = tmp_path / "r.jsonl"
        assert cli.main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == cli.EXIT_OK
        csv_file = tmp_path / "s.csv"
        assert cli.main(["show", "--in", str(out), "--csv", str(csv_file)]) == cli.EXIT_OK
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("chain,norm_class,min_margin")

    def test_hunt_and_show(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code = cli.main(["hunt", "--samples", "10", "--n-max", "2", "--m-max", "2",
                         "--seed", "9", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert cli.main(["show", "--in", str(out)]) == cli.EXIT_OK
        assert "argmin re-evaluation" in capsys.readouterr().out

    def test_refuted_hunt_argmin_is_a_known_violation(self, tmp_path, capsys):
        """At s = 0.5 (sr < 1) every sample of seed 50's first 12 has m >= 2,
        so all are refuted in closed form and so is the arg-min: it is
        reported as a known violation, not rechecked in extended precision
        nor recorded as a candidate, and exits 0."""
        out = tmp_path / "h.json"
        code = cli.main(["hunt", "--s-lo", "0.5", "--s-hi", "0.5", "--samples", "12",
                         "--seed", "50", "--n-max", "3", "--m-max", "3", "--refine", "16",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "status=refuted" in text and "known violation (refuted regime)\n" in text
        assert "recheck" not in text and "candidate" not in text
        record = json.loads(out.read_text())
        assert record["argmin"]["status"] == "refuted" and record["min_margin"] < 0.0
        assert record["candidate"] is False and record["recheck_margin"] is None

    def test_hunt_timing_on_stderr(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            code = cli.main(["hunt", "--samples", "10", "--n-max", "2", "--m-max", "2",
                             "--seed", "9", "--out", str(out)])
            assert code == cli.EXIT_OK
            captured = capsys.readouterr()
            assert re.fullmatch(r"wall seconds: \d+\.\d{3}   samples/s: (\d+\.\d|inf)\n",
                                captured.err)
            assert captured.out.startswith("samples evaluated: 10   gated: 0\n")
            outs.append((captured.out.replace(str(out), "OUT"), out.read_bytes()))
        assert outs[0] == outs[1]
        assert b"wall" not in outs[0][1]

    def test_show_gated_argmin(self, tmp_path, capsys):
        r = hunt(SearchConfig(**TestHunt.CFG))

        def stored(M):
            return [[[float(v), 0.0] for v in row] for row in M]

        # an A_1 with condition number 1e9 puts the stored point over the 1e8 cap
        r.argmin = dict(r.argmin, n=2, m=1, A=[stored(np.diag([1.0, 1e-9]))],
                        B=[stored(np.eye(2))])
        out = tmp_path / "h.json"
        write_reports(r, out)
        assert cli.main(["show", "--in", str(out)]) == cli.EXIT_OK
        assert "argmin re-evaluation: gated" in capsys.readouterr().out

    def test_show_all_gated_hunt(self, tmp_path, capsys):
        """A hunt whose every sample is gated has min_margin inf, written
        as "inf", which must read back as a float.  No law gates an n = 1
        sample (its condition number is 1); base seed 9 draws four samples
        with n >= 2, which this law of condition 1e18 all gates."""
        cfg = SearchConfig(base_seed=9, samples=4, n_max=4, m_max=2,
                           spectrum_law=SpectrumLaw(1e-9, 1e9))
        assert (_sample_points(cfg, range(cfg.samples))["n"] >= 2).all()
        r = hunt(cfg)
        assert r.gated_count == 4 and r.argmin is None and r.min_margin == float("inf")
        out = tmp_path / "h.json"
        write_reports(r, out)
        assert read_reports(out).to_record() == r.to_record()
        assert cli.main(["show", "--in", str(out)]) == cli.EXIT_OK
        assert "min_margin=+inf" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"chains": ["bogus"]}')
        assert cli.main(["sweep", "--config", str(cfg_file)]) == cli.EXIT_CONFIG
        assert cli.main(["sweep", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
        bad_norm = cli.main(["verify", "--chain", "main", "--count", "1",
                             "--norms", "nuclear"])
        assert bad_norm == cli.EXIT_CONFIG

    def test_chain_listed_twice_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(SMALL, chains=["main", "geo-z", "main"])))
        assert cli.main(["sweep", "--config", str(cfg_file)]) == cli.EXIT_CONFIG
        assert "chain 'main' is listed twice" in capsys.readouterr().err

    def test_norm_listed_twice_exit_code(self, capsys):
        code = cli.main(["verify", "--chain", "main", "--n", "2", "--m", "2", "--count", "2",
                         "--seed", "1", "--norms", "trace,trace"])
        assert code == cli.EXIT_CONFIG
        assert "norm 'trace' is listed twice" in capsys.readouterr().err

    def test_value_listed_twice_exit_code(self, capsys):
        code = cli.main(["verify", "--chain", "main", "--count", "1", "--s", "2,2"])
        assert code == cli.EXIT_CONFIG
        assert "s_values lists 2.0 twice" in capsys.readouterr().err

    def test_config_type_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"n_values": 3}')
        assert cli.main(["sweep", "--config", str(cfg_file)]) == cli.EXIT_CONFIG
        assert "n_values must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--chain", "main", "--s", "1.5"],
        ["verify", "--chain", "geo-z", "--s", "0.5"],
        ["verify", "--chain", "t-chain", "--t", "1.5"],
    ])
    def test_empty_grid_exit_code(self, argv, capsys):
        assert cli.main([*argv, "--count", "1"]) == cli.EXIT_CONFIG
        assert f"chain '{argv[2]}' has no point to evaluate" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--r", "-1"), ("--p", "0")])
    def test_hunt_nonpositive_exponent_exit_code(self, flag, value, capsys):
        assert cli.main(["hunt", "--samples", "5", flag, value]) == cli.EXIT_CONFIG
        assert "must be a nonempty list of positive numbers" in capsys.readouterr().err

    def test_hunt_half_t_range_exit_code(self, capsys):
        for flag, value in (("--t-lo", "0.2"), ("--t-hi", "0.8")):
            assert cli.main(["hunt", "--samples", "1", flag, value]) == cli.EXIT_CONFIG
            assert "--t-lo and --t-hi must be given together" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, message", [
        ("nan", "error: refine_steps >= 0 and a finite refine_scale > 0 required"),
        ("inf", "error: refine_steps >= 0 and a finite refine_scale > 0 required"),
        ("1e300", "error: NonFiniteInput: matrix contains NaN or Inf entries"),
    ])
    def test_hunt_bad_refine_scale_exit_code(self, scale, message, capsys):
        """A refine scale that is not a finite positive number is refused,
        and one so large that its candidates overflow ends the run when
        they are evaluated: exit 3 and one line on stderr, with no
        traceback and no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["hunt", "--samples", "50", "--refine", "20",
                             "--refine-scale", scale])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == message + "\n"

    @pytest.mark.parametrize("text", [pytest.param('[{"a": 1}]', id="list"),
                                      pytest.param('"x"', id="string"),
                                      pytest.param("3", id="number"),
                                      pytest.param("null", id="null")])
    def test_config_not_object_exit_code(self, text, tmp_path, capsys):
        """A sweep config file whose JSON value is not an object is refused
        before any key is looked at: exit 3 and one stderr line."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert cli.main(["sweep", "--config", str(cfg_file)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep config must be a JSON object, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("chain", ["t-chain", "lemmas"])
    def test_wide_law_numerical_failure_exit_code(self, chain, capsys):
        """A spectrum law of condition 1e12 puts a negative power under the
        PD floor: the run ends with exit 3 and a one-line message naming
        the error, not a traceback."""
        code = cli.main(["verify", "--chain", chain, "--n", "3", "--m", "2", "--count", "20",
                         "--seed", "1", "--s", "1.5,2", "--spectrum-lo", "1e-6",
                         "--spectrum-hi", "1e6"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: SingularForNegativePower: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (["hunt", "--samples", "5", "--s-hi", "inf"], "s_range"),
        (["hunt", "--samples", "5", "--r", "inf"], "r_values"),
        (["verify", "--chain", "geo-z", "--count", "1", "--s", "inf"], "s_values"),
        (["verify", "--chain", "t-chain", "--count", "1", "--p", "inf"], "p_values"),
        (["verify", "--chain", "main", "--count", "1", "--s", "2,inf"], "s_values"),
        (["verify", "--chain", "main", "--n", "2", "--m", "2", "--count", "2", "--s", "2,nan",
          "--norms", "trace"], "s_values"),
        (["verify", "--chain", "t-chain", "--count", "1", "--t", "0.5,nan"], "t_values"),
    ])
    def test_infinite_parameter_exit_code(self, argv, field, capsys):
        """An infinite or NaN exponent or range end is a configuration error
        that names its field, not a failure of the evaluation (a NaN point
        is not dropped from the grid)."""
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite, got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--chain", "main", "--count", "1", "--tol", "-1"],
         "error: tol_rel must be finite and >= 0, got -1.0"),
        (["hunt", "--samples", "5", "--s-lo", "2", "--s-hi", "2", "--tol", "-1"],
         "error: tol_rel must be finite and >= 0, got -1.0"),
        (["verify", "--chain", "main", "--count", "1", "--tol", "inf"],
         "error: tol_rel must be finite and >= 0, got inf"),
        (["hunt", "--samples", "5", "--tol", "nan"],
         "error: tol_rel must be finite and >= 0, got nan"),
        (["verify", "--chain", "main", "--count", "2", "--norms", ","],
         "error: norms must be a nonempty list of norm labels, got []"),
        (["hunt", "--samples", "5", "--norms", ","],
         "error: norms must be a nonempty list of norm labels, got []"),
        (["verify", "--chain", "main", "--count", "1", "--norms", "bogus"],
         "error: norms: cannot parse norm spec 'bogus'"),
        (["verify", "--chain", "main", "--count", "1", "--spectrum-hi", "inf"],
         "error: need finite 0 < lo <= hi, got [0.1, inf]"),
    ])
    def test_bad_run_field_exit_code(self, argv, message, capsys):
        """A negative, infinite or NaN tolerance, an empty or unparsable
        norm list and an infinite spectrum bound are refused before any
        instance is evaluated: exit 3, one stderr line, nothing on stdout."""
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    _MALFORMED = {
        "extra_pair": "DimensionMismatch: ",
        "ragged": "DimensionMismatch: ",
        "min_margin": "MalformedRecord: search result lacks field 'min_margin'",
        "min_margin_not_number": "MalformedRecord: search result min_margin is not a number: 'x'",
        "m": "MalformedRecord: arg-min lacks field 'm'",
        "params": "MalformedRecord: arg-min lacks field 'params'",
        "norm": "MalformedRecord: arg-min lacks field 'norm'",
        "A": "MalformedRecord: arg-min lacks field 'A'",
        "param_not_number": "MalformedRecord: arg-min param 's' is not a number: 'x'",
        "norm_not_record": "not a norm record: {'variant': 'kyfan'}",
        **{name: f"MalformedRecord: search result lacks field {name!r}"
           for name in ("base_seed", "samples_evaluated", "gated_count", "candidate",
                        "recheck_margin", "argmin")},
    }

    @pytest.mark.parametrize("malform", list(_MALFORMED))
    def test_show_malformed_argmin(self, malform, tmp_path, capsys):
        """An arg-min whose matrices do not form m n x n pairs is refused
        when its instance is built (DimensionMismatch), and a search result
        that lacks a field, or whose arg-min parameter or norm is not one, is
        refused naming the field: exit 3, one stderr line."""
        r = hunt(SearchConfig(base_seed=3, samples=30))
        inst = generate_instance("generic", 3, 2, 5)
        pairs = {name: [[[[v.real, v.imag] for v in row] for row in Xi] for Xi in X]
                 for name, X in (("A", inst.A), ("B", inst.B))}
        r.argmin.update(n=3, m=2, **pairs)
        path = self._written(r, tmp_path)
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_OK
        rec = json.loads(path.read_text())
        arg = rec["argmin"]
        if malform == "extra_pair":
            arg["A"].append(arg["A"][0])
        elif malform == "ragged":
            arg["B"][1][2].pop()  # one row of one matrix loses an entry
        elif malform == "param_not_number":
            arg["params"]["s"] = "x"
        elif malform == "min_margin_not_number":
            rec["min_margin"] = "x"
        elif malform == "norm_not_record":
            arg["norm"] = {"variant": "kyfan"}  # no k
        else:
            (rec if malform in rec else arg).pop(malform)
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: " + self._MALFORMED[malform])
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("m, n", [(2, "x"), (2.5, 3)])
    def test_show_non_integer_size(self, m, n, tmp_path, capsys):
        """An arg-min whose n or m is not an integer is refused when its
        instance is built, with a message naming the field: exit 3."""
        path = self._written(hunt(SearchConfig(base_seed=3, samples=30)), tmp_path)
        rec = json.loads(path.read_text())
        rec["argmin"].update(m=m, n=n)
        path.write_text(json.dumps(rec))
        capsys.readouterr()
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: m and n must be integers, got m={m!r}, n={n!r}\n"

    @pytest.mark.parametrize("text, line", [
        ("[1, 2]\n", "[1, 2]"),
        ('{"schema_version": 1, "kind": "summary", "groups": []}\n7\n', "7"),
    ], ids=["array", "summary_then_number"])
    def test_show_non_object_line(self, text, line, tmp_path, capsys):
        """A report line that is JSON but not an object is refused naming
        the line: exit 3, one stderr line."""
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: MalformedRecord: {path}: line {line!r} is not a JSON object\n"

    def test_show_search_result_with_trailing_lines(self, tmp_path, capsys):
        """A search result is one line: a file with lines after it is
        refused naming the first of them (exit 3, one stderr line), and
        blank lines after it are not lines."""
        path = self._written(hunt(SearchConfig(base_seed=3, samples=30)), tmp_path)
        text = path.read_text()
        path.write_text(text + "\n\n")
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_OK
        path.write_text(text + "7\n[1,2]\n")
        capsys.readouterr()
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: MalformedRecord: {path}: search result followed by line '7'\n"

    def test_show_csv_of_search_result_exits_config(self, tmp_path, capsys):
        """`--csv` summarizes a report set's groups: on a search result it
        exits 3 with one stderr line, prints nothing and writes no file."""
        path = self._written(hunt(SearchConfig(base_seed=3, samples=30)), tmp_path)
        csv_file = tmp_path / "s.csv"
        capsys.readouterr()
        assert cli.main(["show", "--in", str(path), "--csv", str(csv_file)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and not csv_file.exists()
        assert err == f"error: --csv needs a report set; {path} is a search result\n"

    @pytest.mark.parametrize("case", ["show_directory", "verify_out_directory",
                                      "sweep_binary_config"])
    def test_file_error_exits_config(self, case, tmp_path, capsys):
        """A file that cannot be read or written as asked (a directory given
        as a file, a config that is not UTF-8 text) exits 3 with one
        stderr line, not a traceback."""
        config = tmp_path / "cfg.json"
        config.write_bytes(bytes(range(128, 256)))
        argv = {"show_directory": ["show", "--in", str(tmp_path)],
                "verify_out_directory": ["verify", "--chain", "main", "--n", "2", "--m", "2",
                                         "--count", "1", "--out", str(tmp_path)],
                "sweep_binary_config": ["sweep", "--config", str(config)]}[case]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_show_report_without_summary_exits_config(self, tmp_path, capsys):
        """The golden sweep report cut before its last line, the summary,
        is refused naming the file (exit 3, one stderr line), not read as a
        report of no records."""
        lines = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(lines[-1])["kind"] == "summary"
        path = tmp_path / "cut.jsonl"
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        assert cli.main(["show", "--in", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: MalformedRecord: {path}: {len(lines) - 1} records and no"
                       " summary record\n")

    def test_usage_error_exits_config(self, capsys):
        """An argparse usage error exits 3, not argparse's 2 (which means a
        violation in a proven regime here); --help still exits 0."""
        for argv in (["hunt", "--s-range", "0.3,0.8"], ["verify", "--chain", "nope"], []):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert "error: " in capsys.readouterr().err
        assert cli.main(["hunt", "--help"]) == cli.EXIT_OK
        assert "usage: gmineq hunt" in capsys.readouterr().out

    @staticmethod
    def _written(result, tmp_path):
        out = tmp_path / "h.json"
        write_reports(result, out)
        return out
