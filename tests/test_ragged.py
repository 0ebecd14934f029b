"""Ragged stacks: the instances of one n with different m in one stack.

`InstanceSpectra` holds a stack's pairs laid end to end and each
instance's pair count.  Every row of such a stack must be bitwise the
instance alone, the sweep and the hunt evaluate each n once (the sweep's
commuting variants and m-free lemma ids too), a hunt stack with gated
instances gives the kept ones their margins alone, and a failing instance
in an n-group still ends a run as it does alone.
"""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gmineq
from gmineq import cli, errors
from gmineq.blocks import InstanceSet
from gmineq.chains import (ChainParams, InstanceSpectra, commuting_terms, expand_norm_tokens,
                           geo_z_terms, grid_terms, main_chain_terms, t_chain_terms)
from gmineq.generate import SpectrumLaw, derive_seed, generate_instance
from gmineq.hunt import SearchConfig, _point_margin, _sample_points, hunt
from gmineq.lemmas import LEMMA_IDS, lemma_terms, random_case
from gmineq.linalg import from_spectrum, hermitian_eig, sum_pairs
from gmineq.reports import chain_block, dumps, lemma_block
from gmineq.sweep import SweepConfig, run_sweep

hunt_module = importlib.import_module("gmineq.hunt")
sweep_module = importlib.import_module("gmineq.sweep")

# The boundaries s = 1, 2 and t = 0, 1, a fast-path exponent, and weighted
# points with sr < 1.
GRIDS = {
    "main": [ChainParams(s=2.0, r=1.0, p=1.0), ChainParams(s=3.0, r=2.0, p=0.5),
             ChainParams(s=2.5, r=1.0, p=2.0)],
    "geo-z": [ChainParams(s=1.0, r=1.0, p=1.0), ChainParams(s=1.5, r=1.0, p=1.0)],
    "t-chain": [ChainParams(s=0.5, r=1.0, p=1.0, t=0.5), ChainParams(s=1.5, r=1.0, p=2.0, t=0.3),
                ChainParams(s=2.0, r=0.5, p=1.0, t=0.0), ChainParams(s=1.0, r=2.0, p=0.5, t=1.0)],
}

# Sweep-main's config: criterion 1's shapes, one instance each.
SWEEP_MAIN = dict(chains=["main"], n_values=[1, 2, 3, 4, 5], m_values=[1, 2, 3, 4],
                  instance_count=20, base_seed=11, s_values=[2.0, 2.5, 3.0, 4.0],
                  r_values=[1.0, 1.5, 2.0], p_values=[0.5, 1.0, 2.0], norms=["kyfan:all"])


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _group(insts: list) -> InstanceSpectra:
    """The ragged stack of instances of one n: their pairs end to end."""
    return InstanceSpectra(np.concatenate([inst.A for inst in insts]),
                           np.concatenate([inst.B for inst in insts]),
                           [inst.m for inst in insts])


def _identity(n: int, m: int) -> InstanceSet:
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    return InstanceSet(m=m, n=n, A=eye, B=eye, seed=7)


@pytest.mark.parametrize("n", [1, 3])
def test_mixed_m_rows_are_each_instance_alone(n):
    """One stack of m = 1..4 with the identity instance at m = 2 and 4:
    every row of every grid chain is bitwise the instance alone, Z cut to
    its own m n, with its own condition number; the identity gives
    rho = m^{1 - sr} to 1e-12."""
    ms = [1, 2, 3, 4, 2, 1, 4, 3]
    insts = [_identity(n, m) if i in (4, 6) else generate_instance("generic", n, m, 200 + i)
             for i, m in enumerate(ms)]
    spectra = _group(insts)
    fresh = [inst if i in (4, 6) else generate_instance("generic", n, inst.m, inst.seed)
             for i, inst in enumerate(insts)]
    np.testing.assert_array_equal(spectra.condition_max,
                                  [inst.spectra.condition_max[0] for inst in fresh])
    for chain, grid in GRIDS.items():
        terms = grid_terms(spectra, chain, grid)
        for i, inst in enumerate(fresh):
            row = terms.take(slice(i, i + 1), inst.m * n)
            assert row.max_dim == (n if chain == "t-chain" else inst.m * n)
            assert row.condition_max[0] == inst.spectra.condition_max[0]
            for k, q in enumerate(grid):
                alone = grid_terms(inst.spectra, chain, [q])
                for name in ("lhs_sv", "mid_sv", "rhs_sv"):
                    have, want = getattr(row, name), getattr(alone, name)
                    assert (have is None) == (want is None)
                    if have is not None:
                        assert _bitwise_equal(have[k, 0], want[0, 0]), (chain, i, k, name)
                if i in (4, 6):
                    lhs, rhs = row.lhs_sv[k, 0], row.rhs_sv[k, 0]
                    size = max(lhs.size, rhs.size)
                    ky_fan = [np.cumsum(np.pad(sv, (0, size - sv.size))) for sv in (lhs, rhs)]
                    rho = np.max(ky_fan[0] / ky_fan[1])
                    assert rho == pytest.approx(inst.m ** (1.0 - q.s * q.r), rel=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_one_point_contract(n):
    """On an `InstanceSet` the four chain evaluators give 1-D spectra and a
    Python float condition_max, each bitwise the instance's row of its
    mixed-m n-group (m = 1, 2, 4): of `grid_terms` on the group's stack,
    Z cut to the instance's own m n."""
    point_terms = {"main": main_chain_terms, "t-chain": t_chain_terms,
                   "geo-z": lambda inst, q: geo_z_terms(inst, q.s)}

    def assert_row(one, row, at):
        for name in ("lhs_sv", "mid_sv", "rhs_sv"):
            have, want = getattr(one, name), getattr(row, name)
            assert (have is None) == (want is None), name
            if have is not None:
                assert have.ndim == 1 and _bitwise_equal(have, want[at]), name
        assert type(one.condition_max) is float and one.condition_max == row.condition_max[0]

    for kind in ("generic", "commuting"):
        insts = [generate_instance(kind, n, m, 400 + m) for m in (1, 2, 4)]
        spectra = _group(insts)
        group = ([(variant, grid_terms(spectra, f"commuting-{variant}", [ChainParams(s=1.0)]))
                  for variant in ("product", "symmetrized")] if kind == "commuting" else
                 [(chain, grid_terms(spectra, chain, grid)) for chain, grid in GRIDS.items()])
        for i, inst in enumerate(insts):
            for name, terms in group:
                row = terms.take(slice(i, i + 1), inst.m * n)
                if kind == "commuting":
                    assert_row(commuting_terms(inst, name), row, (0, 0))
                    continue
                for k, q in enumerate(GRIDS[name]):
                    assert_row(point_terms[name](inst, q), row, (k, 0))


def test_select_keeps_each_instances_pairs(monkeypatch):
    """`_stack_margins` on a mixed-m stack with gated instances builds the
    stack of the kept instances' own pairs, and gives each kept instance
    the margin and winning norm it gets alone, each gated one margin inf
    and winner -1."""
    law = SpectrumLaw(1e-3, 1e3)
    insts = [generate_instance("generic", 2, m, seed, law)
             for m, seed in ((3, 1), (1, 2), (2, 3), (4, 4), (2, 5))]
    points = [ChainParams(s=1.5, t=0.3), ChainParams(s=1.2, t=0.5, r=2.0),
              ChainParams(s=1.9, t=0.7, p=0.5), ChainParams(s=1.1, t=0.1),
              ChainParams(s=2.0, t=0.5, r=2.0, p=2.0)]
    rows = {"m": np.array([inst.m for inst in insts]),
            **{name: np.array([getattr(q, name) for q in points]) for name in "strp"}}
    A, B = (np.concatenate([getattr(inst, X) for inst in insts]) for X in "AB")
    specs = expand_norm_tokens(["kyfan:all", "schatten:2"], 2)
    alone = [_point_margin(inst, q, specs, 1e8) for inst, q in zip(insts, points)]
    real, built = hunt_module.InstanceSpectra, []

    def spectra(A, B, counts):
        built.append(np.asarray(counts).tolist())
        return real(A, B, counts)

    monkeypatch.setattr(hunt_module, "InstanceSpectra", spectra)
    kappa = np.array([float(inst.spectra.condition_max[0]) for inst in insts])
    assert len(set(kappa.tolist())) == len(insts)
    for cap in np.sort(kappa)[:-1]:  # 4, 3, 2, then 1 of the 5 instances gated
        built.clear()
        gated, margin, winner = hunt_module._stack_margins(A, B, rows, specs, cap)
        kept = kappa <= cap
        assert gated.tolist() == (~kept).tolist()
        assert built == [rows["m"].tolist(), rows["m"][kept].tolist()]
        for k in range(len(insts)):
            if gated[k]:
                assert margin[k] == np.inf and winner[k] == -1
            else:
                assert (margin[k], specs[winner[k]]) == alone[k]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), ms=st.lists(st.integers(1, 4), min_size=2, max_size=5),
       seed=st.integers(0, 2 ** 32),
       point=st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                       st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]),
                       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])))
def test_swap_symmetry(n, ms, seed, point):
    """(t, A, B) -> (1 - t, B, A) leaves the weighted chain's spectra
    unchanged, on a mixed-m stack: A #_t B = B #_{1-t} A, and the swapped
    sandwich is F F* for the sandwich F* F.  Every lhs and rhs spectrum
    agrees to 1e-10 of its largest value."""
    s, t, r, p = point
    insts = [generate_instance("generic", n, m, derive_seed(seed, i)) for i, m in enumerate(ms)]
    swapped = [InstanceSet(m=i.m, n=n, A=i.B, B=i.A, seed=i.seed) for i in insts]
    base = grid_terms(_group(insts), "t-chain", [ChainParams(s=s, r=r, p=p, t=t)])
    turned = grid_terms(_group(swapped), "t-chain", [ChainParams(s=s, r=r, p=p, t=1.0 - t)])
    for want, have in ((base.lhs_sv, turned.lhs_sv), (base.rhs_sv, turned.rhs_sv)):
        scale = want.max(axis=-1, keepdims=True)
        assert np.all(np.abs(have - want) <= 1e-10 * scale)


# The reductions' stacks: n, the largest m (each stack cycles m from 1 up
# to it), and the seeds; and their (s, t) points.
REDUCTION_STACKS = [(2, 2, seed) for seed in (3, 4)] + [(3, 3, seed) for seed in (5, 6)]
REDUCTION_POINTS = [(1.0, 0.5), (1.5, 0.25), (1.5, 0.5), (2.0, 0.1), (3.0, 0.4)]


def _reduction_stack(n: int, m_max: int, seed: int) -> tuple:
    insts = [generate_instance("generic", n, 1 + i % m_max, derive_seed(seed, i)) for i in range(6)]
    return _group(insts), insts


def _weakly_below(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Every Ky Fan norm of the descending spectra `lo` (..., d) is at most
    that of `hi`, to 1e-10 relative."""
    return bool(np.all(np.cumsum(lo, axis=-1) <= (1.0 + 1e-10) * np.cumsum(hi, axis=-1)))


@pytest.mark.parametrize("n, m_max, seed", REDUCTION_STACKS)
def test_araki_rhs_grows_with_p(n, m_max, seed):
    """Araki 1990: the weighted chain's rhs, ((sum A)^{(1-t)srp/2}
    (sum B)^{tsrp} (sum A)^{(1-t)srp/2})^{1/p}, is weakly majorized from
    p' to p for every p' < p, and its Lie-Trotter limit at p -> 0,
    exp(sr ((1-t) log sum A + t log sum B)), lies below p = 1/4."""
    spectra, insts = _reduction_stack(n, m_max, seed)
    ps = [0.25, 0.5, 1.0, 2.0, 4.0]
    for s, t in REDUCTION_POINTS:
        rhs = grid_terms(spectra, "t-chain", [ChainParams(s=s, r=1.0, p=p, t=t) for p in ps]).rhs_sv
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                assert _weakly_below(rhs[i], rhs[j]), (s, t, ps[i], ps[j])

        def log(X):
            eig = hermitian_eig(X)
            return from_spectrum(eig.vectors, np.log(eig.eigenvalues))

        H = [(1.0 - t) * log(sum_pairs(inst.A)) + t * log(sum_pairs(inst.B)) for inst in insts]
        limit = np.exp(s * hermitian_eig(np.stack(H)).eigenvalues)
        assert _weakly_below(limit, rhs[0]), (s, t)


@pytest.mark.parametrize("n, m_max, seed", REDUCTION_STACKS)
def test_ando_zhan_lhs_below_power_of_sum(n, m_max, seed):
    """Ando-Zhan 1999: for r >= 1, sum M_i^r is weakly majorized by
    (sum M_i)^r, M_i = A_i^s #_t B_i^s: lhs_sv(s, t, r) against
    lhs_sv(s, t, 1) ** r."""
    spectra, _ = _reduction_stack(n, m_max, seed)
    rs = [1.0, 1.5, 2.0, 3.0]
    for s, t in REDUCTION_POINTS:
        lhs = grid_terms(spectra, "t-chain", [ChainParams(s=s, r=r, t=t) for r in rs]).lhs_sv
        for k in range(1, len(rs)):
            assert _weakly_below(lhs[k], lhs[0] ** rs[k]), (s, t, rs[k])


def test_sweep_main_decompositions_per_n(monkeypatch):
    """Sweep-main's 20 shapes make at most 9 eigh plus svd calls per n:
    each n's four shapes are one stack."""
    calls = []

    def counted(decompose):
        def call(*args, **kwargs):
            calls.append(decompose.__name__)
            return decompose(*args, **kwargs)
        return call

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    rs = run_sweep(SweepConfig(**SWEEP_MAIN))
    assert len(rs.blocks) == 20 and sum(len(block.seeds) for block in rs.blocks) == 20 * 28
    assert len(calls) <= 9 * len(SWEEP_MAIN["n_values"]), calls


def test_mixed_m_group_records_are_each_case_alone():
    """Every term set of an n = 3 group with m = 1, 2 and 4 is byte-equal
    to its one-case form: each lemma row to `lemma_block` of
    `random_case` at its seed and m, each commuting row of both variants
    to `commuting_terms` on its instance alone."""
    cfg = SweepConfig(chains=["commuting", "lemmas"], n_values=[3], m_values=[1, 2, 4],
                      instance_count=9, base_seed=23,
                      norms=["kyfan:all", "schatten:1", "schatten:3.5", "operator"])
    blocks = run_sweep(cfg).blocks
    assert sum(len(block.seeds) for block in blocks) == 9 * (2 + len(LEMMA_IDS))
    variants = set()
    for block in blocks:
        D, n = len(block.norms), block.n
        for row, (m, seed) in enumerate(zip(block.ms, block.seeds)):
            if block.kind == "lemma":
                case = random_case(block.id, seed, n, m)
                terms = lemma_terms(case)
                alone = lemma_block(case, terms, [seed], n, [m],
                                    expand_norm_tokens(cfg.norms, terms.max_dim))
            else:
                variant = block.id.removeprefix("commuting-")
                variants.add(variant)
                inst = generate_instance("commuting", n, m, seed)
                terms = commuting_terms(inst, variant)
                alone = chain_block(terms, inst.n, inst.m, [inst.seed], [ChainParams(s=1.0)],
                                    expand_norm_tokens(cfg.norms, terms.max_dim))
            assert dumps(block.records[row * D:row * D + D]) == dumps(alone.records), (block.id, seed)
    assert variants == {"product", "symmetrized"}


def test_commuting_pairs_decomposed_once(monkeypatch):
    """A sweep of `main` and `commuting` on commuting instances decomposes
    each pair matrix A_i, B_i and each instance sum once: both chains read
    the n-group's one stack."""
    seen = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.extend(x.tobytes() for x in np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    run_sweep(SweepConfig(chains=["main", "commuting"], generator="commuting", n_values=[3],
                          m_values=[1, 2], instance_count=4, base_seed=8))
    insts = [generate_instance("commuting", 3, (1, 2)[i % 2], derive_seed(8, i)) for i in range(4)]
    # an m = 1 instance's sum is its one pair matrix, decomposed once too
    matrices = [x.tobytes() for inst in insts
                for x in [*inst.A, *inst.B, sum_pairs(inst.A), sum_pairs(inst.B)]]
    assert {x: seen.count(x) for x in matrices} == dict.fromkeys(matrices, 1)


def test_one_pair_sums_take_the_pair_decomposition(monkeypatch):
    """An m = 1 instance's sums have its pair's bytes (0 + X = X, and
    `hermitize` keeps an exactly Hermitian X), so they take the pair's
    decomposition rows, with the bytes that decomposing them gives.  A
    -0.0 entry is the one exception: 0 + -0.0 is 0.0, so that sum has other
    bytes and is decomposed itself, as it was before."""
    inst = generate_instance("generic", 3, 1, 12)
    signed = np.diag([2.0, 3.0, 4.0]).astype(np.complex128)
    signed[0, 1] = signed[1, 0] = complex(-0.0, 0.0)
    assert np.signbit(signed.real).any() and not np.signbit(sum_pairs(signed[None]).real).any()
    for A, decomposed in ((inst.A, 2), (signed[None], 3)):
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: seen.append(len(a)) or eigh(a, *args))
        spectra = InstanceSpectra(A, inst.B, [1])
        got = spectra._eigs
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert seen == [decomposed]
        for eig, pair, total in ((got[2], A, spectra.sums[0]), (got[3], inst.B, spectra.sums[1])):
            want = hermitian_eig(total)
            assert eig.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert eig.vectors.tobytes() == want.vectors.tobytes()
        assert got[3].vectors.tobytes() == got[1].vectors.tobytes()


def test_sweep_mixed_evaluations_per_n(monkeypatch):
    """On sweep-mixed's config an n-group makes one lemma terms call per
    m-free lemma id and one per other id and m (7 + 3 |m_values|), and one
    `grid_terms` call per chain id, the commuting variants included."""
    calls = []

    def counted(name):
        real = getattr(sweep_module, name)

        def call(*args, **kwargs):
            calls.append(name if name != "grid_terms" else (args[1], args[0]._A.shape[-1]))
            return real(*args, **kwargs)
        return call

    for name in ("lemma_stack_terms", "grid_terms"):
        monkeypatch.setattr(sweep_module, name, counted(name))
    cfg = SweepConfig(chains=["main", "geo-z", "t-chain", "commuting", "lemmas"],
                      n_values=[2, 3, 4], m_values=[2, 3], instance_count=24, base_seed=31,
                      s_values=[1.5, 2.0, 3.0], r_values=[1.0, 2.0], p_values=[1.0],
                      t_values=[0.3, 0.5], norms=["kyfan:all", "schatten:1"])
    run_sweep(cfg)
    assert calls.count("lemma_stack_terms") == 3 * (7 + 3 * 2)
    ids = ("main", "geo-z", "t-chain", "commuting-product", "commuting-symmetrized")
    assert sorted(call for call in calls if call != "lemma_stack_terms") == \
        sorted((cid, n) for cid in ids for n in cfg.n_values)


def test_hunt_sampling_one_evaluation_per_n(monkeypatch):
    """A 600-sample hunt at n_max = 4, m_max = 3 (one chunk, no
    refinement) evaluates its sampling phase with one `_stack_margins`
    call per sampled n."""
    cfg = SearchConfig(base_seed=5, samples=600, refine_steps=0, n_max=4, m_max=3).validate()
    real, calls = hunt_module._stack_margins, []

    def counted(*args, **kwargs):
        calls.append(len(args[2]["m"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(hunt_module, "_stack_margins", counted)
    result = hunt(cfg)
    assert result.samples_evaluated + result.gated_count == cfg.samples == sum(calls)
    columns = _sample_points(cfg, range(cfg.samples))
    assert len(calls) == len(set(columns["n"].tolist())) <= 4


def test_failing_instance_in_a_mixed_group(tmp_path, capsys):
    """An instance of a mixed-m n-group that the wide law makes singular
    raises SingularForNegativePower, as it does alone, and the CLI exits
    3 with one line."""
    config = dict(chains=["t-chain"], n_values=[3], m_values=[1, 2, 3], instance_count=60,
                  base_seed=1, s_values=[1.5, 2.0], spectrum_law={"lo": 1e-6, "hi": 1e6})
    with pytest.raises(errors.SingularForNegativePower):
        run_sweep(SweepConfig.from_dict(config))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: SingularForNegativePower: ") and err.count("\n") == 1


def test_empty_chains_rejected():
    with pytest.raises(errors.ConfigError, match="chains must list at least one chain"):
        SweepConfig(chains=[]).validate()


def test_empty_chains_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"chains": []}')
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.jsonl")]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: chains must list at least one chain") and err.count("\n") == 1
    assert not (tmp_path / "r.jsonl").exists()


def test_mpmath_imported_by_the_first_recheck():
    """`import gmineq` leaves mpmath unloaded; a recheck loads it and
    works."""
    code = """
import sys
import gmineq
assert "mpmath" not in sys.modules, "imported with the package"
from gmineq.chains import ChainParams
from gmineq.highprec import t_chain_margin
from gmineq.norms import NormSpec
inst = gmineq.generate_instance("generic", 2, 2, 77)
margin = t_chain_margin(inst.A, inst.B, ChainParams(s=1.5), NormSpec.trace())
assert "mpmath" in sys.modules and margin == margin
print(margin)
"""
    src = os.path.dirname(os.path.dirname(gmineq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.0, abs=1.0)
