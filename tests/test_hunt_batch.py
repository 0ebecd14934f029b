"""The hunt's batches against one-at-a-time evaluation.

The hunt is one loop over batches: the sampling phase computes its
samples' columns from counter-based words and yields one batch per n of
each chunk, each (n, m) group drawn as one stack, and `_advance`
evaluates each batch as one stack.  Every sample must come out bitwise as
it does alone: the same columns as `_sample_points` gives it in a block of
one, the pairs `generate_instance` draws from its seed, and the same gated
flag, margin and winning norm as a direct evaluation of that instance,
through `t_chain_terms` and `reports.chain_block`.  The parameters
themselves must be uniform on their ranges, and must not depend on the
blocks they are computed in.  A stack with no gated instance is evaluated
as it is.

Refinement runs in generations, each drawn from the words of one stream
and evaluated as one batch.  It must come out bitwise as
`_reference_refine`, which draws each candidate in turn from its own
words of the generation's stream, computed one by one, and evaluates it
alone.  The best point is the least (refuted, margin, number), the
samples numbered first: a refuted sample wins only when no other was
evaluated, the first sample wins a tie, a refinement candidate moves the
point only when it ranks lower, and a gated or NaN margin never wins.
On the two faces decided in closed form every margin is a pass.
"""

import importlib
import math

import numpy as np
import pytest

from gmineq import errors
from gmineq.blocks import InstanceSet
from gmineq.chains import (DEFAULT_CONDITION_CAP, ChainParams, expand_norm_tokens, point_status,
                           t_chain_terms)
from gmineq import generate
from gmineq.generate import SpectrumLaw, derive_seed, draw_instances, generate_instance, normals
from gmineq.hunt import SearchConfig, _point_margin, _sample_batches, _sample_points, hunt
from gmineq.linalg import hermitian_eig, hermitize
from gmineq.reports import _lists_to_complex, argmin_point, chain_block

hunt_module = importlib.import_module("gmineq.hunt")

# n up to 9 takes Ky Fan sums past k = 8, where numpy's summation turns
# pairwise; the law's condition numbers reach 1e9, past the 1e8 cap.
WIDE = dict(samples=160, s_range=(1.0, 2.0), t_range=(0.2, 0.8), r_values=[1.0, 2.0],
            p_values=[0.5, 1.0], n_max=9, m_max=3,
            norms=["kyfan:all", "schatten:2", "schatten:inf"],
            spectrum_law=SpectrumLaw(3e-5, 3e4))


def _direct_margin(inst, params, norms, condition_cap):
    """(gated, margin, spec) of one sample, evaluated alone: the smallest
    record min margin over its scale, the first such norm winning a tie."""
    terms = t_chain_terms(inst, params)
    if terms.condition_max > condition_cap:
        return True, None, None
    best, best_spec = np.inf, None
    for spec in expand_norm_tokens(norms, terms.max_dim):
        rec, = chain_block(terms, inst.n, inst.m, [inst.seed], [params], [spec]).records
        margin = min(rec["margins"]) / max(1.0, rec["rhs"])
        if margin < best:
            best, best_spec = margin, spec
    return False, float(best), best_spec


def _row(columns, k):
    """Sample k of a table of columns, as Python scalars."""
    return {name: column[k].item() for name, column in columns.items()}


def _params(row):
    return ChainParams(**{name: row[name] for name in "srpt"})


def _concat(tables):
    """The tables' columns laid end to end."""
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


def _same_columns(got, want):
    """The same column names, and each column bitwise with its dtype."""
    return got.keys() == want.keys() and all(
        got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name])
        for name in want)


def _spy_blocks(monkeypatch):
    """The blocks `_sample_points` is called on from the hunt, in order."""
    blocks, sample_points = [], hunt_module._sample_points

    def spy(cfg, block):
        blocks.append(block)
        return sample_points(cfg, block)

    monkeypatch.setattr(hunt_module, "_sample_points", spy)
    return blocks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bucketed_sampling_matches_sample_by_sample(monkeypatch, seed):
    # chunks of 50 samples, so that the 160 samples take four of them
    monkeypatch.setattr(hunt_module, "_CHUNK_ENTRIES", 50 * 2 * 3 * 9 ** 2)
    cfg = SearchConfig(base_seed=seed, **WIDE).validate()
    blocks = _spy_blocks(monkeypatch)
    batches = list(_sample_batches(cfg))
    assert [len(block) for block in blocks] == [50, 50, 50, 10]
    assert sorted(np.concatenate([batch[0] for batch in batches]).tolist()) == \
        list(range(cfg.samples))
    gated_seen, dims_seen = 0, set()
    for index, A, B, rows in batches:
        assert len(set((index // 50).tolist())) == 1  # one chunk
        # the batch evaluated as `_advance` evaluates it
        gated, margin, winner = hunt_module._stack_margins(A, B, rows, cfg.norms,
                                                           cfg.condition_cap)
        ends = np.cumsum(rows["m"])
        for j, k in enumerate(index.tolist()):
            alone = _sample_points(cfg, range(k, k + 1))
            assert _same_columns({name: column[j:j + 1] for name, column in rows.items()},
                                 {name: alone[name] for name in rows})
            row = _row(alone, 0)
            inst = generate_instance("generic", row["n"], row["m"], row["seed"],
                                     cfg.spectrum_law)
            pairs = slice(ends[j] - row["m"], ends[j])
            assert np.array_equal(A[pairs], inst.A) and np.array_equal(B[pairs], inst.B), k
            params = _params(row)
            # gated samples can be too ill-conditioned for their terms: check the cap first
            if inst.spectra.condition_max > cfg.condition_cap:
                gated_seen += 1
                assert gated[j] and margin[j] == np.inf and winner[j] == -1
                assert _point_margin(inst, params, cfg.norms, cfg.condition_cap) == (None, None)
                continue
            is_gated, want, want_spec = _direct_margin(inst, params, cfg.norms,
                                                       cfg.condition_cap)
            assert not is_gated and not gated[j]
            spec = expand_norm_tokens(cfg.norms, row["n"])[winner[j]]
            assert margin[j] == want and spec == want_spec, k
            assert _point_margin(inst, params, cfg.norms, cfg.condition_cap) == (want, want_spec)
            dims_seen.add(row["n"])
    assert gated_seen > 0
    assert 9 in dims_seen


def test_sampling_phase_lapack_calls_per_bucket(monkeypatch):
    """eigh, svd and qr calls of a hunt without refinement stay within 10
    per (n, m) bucket; evaluating sample by sample makes about 13 per
    sample."""
    cfg = SearchConfig(base_seed=4, samples=200, refine_steps=0, n_max=4, m_max=3)
    columns = _sample_points(cfg, range(cfg.samples))
    buckets = set(zip(columns["n"].tolist(), columns["m"].tolist()))
    calls = []

    def counting(name, decompose):
        def counted(*args, **kwargs):
            calls.append(name)
            return decompose(*args, **kwargs)
        return counted

    for name in ("eigh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    result = hunt(cfg)
    assert result.samples_evaluated + result.gated_count == cfg.samples
    assert len(calls) <= 10 * len(buckets), (len(calls), len(buckets))


def _binomial_ok(values, bound, offset=0):
    """Each of the `bound` values offset, ..., offset + bound - 1 occurs in
    `values` within 5 binomial standard deviations of its expected count."""
    counts = np.bincount(np.asarray(values) - offset, minlength=bound)
    mean = len(values) / bound
    sigma = math.sqrt(mean * (1.0 - 1.0 / bound))
    return len(counts) == bound and bool(np.all(np.abs(counts - mean) < 5.0 * sigma))


@pytest.mark.parametrize("n_max, m_max", [(4, 3), (7, 5)])
def test_sample_fields_uniform(n_max, m_max):
    cfg = SearchConfig(base_seed=13, n_max=n_max, m_max=m_max, r_values=[0.5, 1.0, 2.0],
                       p_values=[1.0, 2.0]).validate()
    samples = _sample_points(cfg, range(100_000))
    assert _binomial_ok(samples["n"], n_max, 1) and _binomial_ok(samples["m"], m_max, 1)
    r = np.searchsorted(cfg.r_values, samples["r"])
    p = np.searchsorted(cfg.p_values, samples["p"])
    assert np.array_equal(np.take(cfg.r_values, r), samples["r"])
    assert np.array_equal(np.take(cfg.p_values, p), samples["p"])
    assert _binomial_ok(r, 3) and _binomial_ok(p, 2)
    assert _binomial_ok(np.floor((samples["s"] - 1.0) * 10).astype(int), 10)


@pytest.mark.parametrize("s_range, t_range", [((1.0, 2.0), (0.2, 0.8)), ((1e-9, 1e9), (0, 1))])
def test_uniforms_in_range(s_range, t_range):
    cfg = SearchConfig(base_seed=2**64 - 1, s_range=s_range, t_range=t_range).validate()
    samples = _sample_points(cfg, range(2**40, 2**40 + 20_000))
    s, t = samples["s"], samples["t"]
    assert s_range[0] <= s.min() and s.max() < s_range[1]
    assert t_range[0] <= t.min() and t.max() < t_range[1]


def test_one_value_ranges_give_their_value():
    cfg = SearchConfig(base_seed=0, n_max=1, m_max=1, s_range=(1.5, 1.5), t_range=(0.3, 0.3),
                       r_values=[2.0], p_values=[0.5]).validate()
    samples = _sample_points(cfg, range(1000))
    want = dict(n=1, m=1, s=1.5, t=0.3, r=2.0, p=0.5)
    assert all(np.all(samples[name] == value) for name, value in want.items())


def test_sample_types():
    cfg = SearchConfig(base_seed=3, n_max=np.int64(3), m_max=2, s_range=(1, 2), t_range=[0, 1],
                       r_values=[1, 2], p_values=[np.float32(0.5), 1]).validate()
    samples = _sample_points(cfg, range(200))
    assert {name: column.dtype for name, column in samples.items()} == dict(
        n=np.int64, m=np.int64, s=np.float64, t=np.float64, r=np.float64, p=np.float64,
        seed=np.uint64)
    assert all(column.shape == (200,) for column in samples.values())
    assert set(samples["p"].tolist()) == {0.5, 1.0}
    row = _row(samples, 0)
    assert all(type(row[name]) is int for name in ("n", "m", "seed"))
    assert all(type(row[name]) is float for name in "strp")


@pytest.mark.parametrize("base_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**40 - 500])
def test_samples_independent_of_blocks(base_seed, start):
    """One call, a call per arbitrary sub-block and a call per sample give
    the same samples, as does a second call."""
    cfg = SearchConfig(base_seed=base_seed, n_max=5, m_max=3, t_range=(0.0, 1.0),
                       r_values=[1.0, 2.0], p_values=[0.5, 1.0, 2.0]).validate()
    block = range(start, start + 1000)
    whole = _sample_points(cfg, block)
    assert all(len(column) == len(block) for column in whole.values())
    assert _same_columns(_sample_points(cfg, block), whole)
    cuts = [0, 1, 2, 7, 300, 301, 999, 1000]
    assert _same_columns(_concat([_sample_points(cfg, block[a:b])
                                  for a, b in zip(cuts, cuts[1:])]), whole)
    assert _same_columns(_concat([_sample_points(cfg, range(k, k + 1)) for k in block]), whole)
    empty = _sample_points(cfg, range(start, start))
    assert _same_columns(empty, {name: column[:0] for name, column in whole.items()})


def test_parameters_do_not_share_the_instance_streams(monkeypatch):
    """The instance seed of sample j, derive_seed(base, 2j + 1), is the key
    of sample 2j + 1's parameter words; the instance streams are tagged,
    so no word the sampling phase draws an instance from is a parameter
    word of any sample."""
    cfg = SearchConfig(base_seed=7, samples=2000, n_max=4, m_max=3).validate()
    taken, take = [], generate.Words.take

    def spy(words, count):
        taken.append(take(words, count))
        return taken[-1]

    monkeypatch.setattr(generate.Words, "take", spy)
    list(_sample_batches(cfg))
    keys = derive_seed(cfg.base_seed, np.arange(cfg.samples, dtype=np.uint64))
    parameter_words = np.concatenate([derive_seed(keys, f) for f in range(6)])
    instance_words = np.concatenate([words.ravel() for words in taken])
    assert instance_words.size > 10 * cfg.samples
    assert not np.isin(instance_words, parameter_words).any()


# The reference generation loop: each candidate drawn in turn from its
# own words of the generation's stream, matrix by matrix, and evaluated as
# a stack of one.

GENERATION = 16


class _CandidateNormals:
    """The normals of candidate c of a generation, whose words are the
    words c w, ..., (c + 1) w - 1 of the generation's stream (w words per
    candidate), each computed alone; `standard_normal` hands them out in
    order."""

    def __init__(self, key, c, w):
        words = np.array([derive_seed(key, j) for j in range(c * w, (c + 1) * w)], np.uint64)
        self.values = iter(normals(words).tolist())

    def standard_normal(self, shape=()):
        return np.array([next(self.values) for _ in range(int(np.prod(shape)))]).reshape(shape)


def _reference_perturb_matrix(H, rng, scale):
    eig = hermitian_eig(H)
    n = H.shape[0]
    lam = eig.eigenvalues * np.exp(scale * rng.standard_normal(n))
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, _ = np.linalg.qr(np.eye(n) + scale * G)
    V = eig.vectors @ Q
    return hermitize((V * lam) @ V.conj().T)


def _reference_perturb_point(inst, params, cfg, rng):
    scale = hunt_module._REFINE_SCALE
    A = [_reference_perturb_matrix(Ai, rng, scale) for Ai in inst.A]
    B = [_reference_perturb_matrix(Bi, rng, scale) for Bi in inst.B]
    new_inst = InstanceSet(m=inst.m, n=inst.n, A=A, B=B, seed=inst.seed, kind="generic")

    def jitter(v, lo, hi):
        if hi <= lo:
            return v
        return float(np.clip(v + scale * (hi - lo) * rng.standard_normal()[()], lo, hi))

    new_params = ChainParams(s=jitter(params.s, *cfg.s_range), r=params.r, p=params.p,
                             t=jitter(params.t, *cfg.t_range))
    return new_inst, new_params


def _reference_refine(cfg, inst, params, spec, best_margin):
    """(inst, params, spec, margin, evaluated, gated, accepted), accepted
    the accepted candidates in generation order."""
    evaluated = gated = 0
    accepted = []
    for generation, start in enumerate(range(0, cfg.refine_steps, GENERATION)):
        key = derive_seed(cfg.base_seed ^ hunt_module._REFINE_TAG, generation)
        width = 2 * inst.m * (inst.n + 2 * inst.n ** 2) + 2  # words of a candidate
        best = None
        for c in range(min(GENERATION, cfg.refine_steps - start)):
            cand_inst, cand_params = _reference_perturb_point(
                inst, params, cfg, _CandidateNormals(key, c, width))
            margin, cand_spec = _point_margin(cand_inst, cand_params, cfg.norms,
                                              cfg.condition_cap)
            if margin is None:
                gated += 1
                continue
            evaluated += 1
            if best is None or margin < best[0]:
                best = (margin, cand_inst, cand_params, cand_spec)
        if best is not None and best[0] < best_margin:
            best_margin, inst, params, spec = best
            accepted.append(inst)
    return inst, params, spec, best_margin, evaluated, gated, accepted


def _start(n, m, seed, law=SpectrumLaw()):
    return generate_instance("generic", n, m, seed, law), ChainParams(s=1.5, t=0.5)


def _batch(inst, params):
    """A sample batch of one sample, numbered 0: the point (inst, params)."""
    rows = {"n": np.array([inst.n]), "m": np.array([inst.m]),
            **{name: np.array([getattr(params, name)]) for name in "strp"},
            "seed": np.array([inst.seed], np.uint64)}
    return np.array([0]), inst.A, inst.B, rows


def _forced_sampling(inst, params):
    """A sampling phase of one sample, the point (inst, params)."""
    return lambda cfg: iter([_batch(inst, params)])


def _started(cfg, inst, params):
    """The hunt's search after its one sample, the point (inst, params)."""
    search = hunt_module._Search()
    hunt_module._advance(search, _batch(inst, params), cfg)
    return search


def _refine(cfg, search):
    """`search` after the hunt's refinement generations."""
    for batch in hunt_module._generations(cfg, search):
        hunt_module._advance(search, batch, cfg)
    return search


def _assert_matches_reference(cfg, inst, params):
    """Refinement from (inst, params) equals the reference bitwise;
    returns the reference's result."""
    margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
    assert margin is not None
    want = _reference_refine(cfg, inst, params, spec, margin)
    got = _refine(cfg, _started(cfg, inst, params))
    want_inst, want_params, want_spec, want_margin, want_evaluated, want_gated, _ = want
    assert got.margin == want_margin
    assert got.spec == want_spec and got.params == want_params
    assert np.array_equal(got.inst.A, np.stack(want_inst.A))
    assert np.array_equal(got.inst.B, np.stack(want_inst.B))
    assert got.inst.seed == inst.seed
    evaluated, gated = got.evaluated - 1, got.gated  # less the start
    assert (evaluated, gated) == (want_evaluated, want_gated)
    assert evaluated + gated == cfg.refine_steps
    return want


OPEN_T = dict(t_range=(0.2, 0.8), norms=["kyfan:all", "schatten:2"])


@pytest.mark.parametrize("n, m, options", [
    (1, 1, {}),
    (3, 2, {}),
    (4, 3, {}),
    (1, 1, OPEN_T),
    (3, 2, OPEN_T),
    (4, 3, OPEN_T),
])
def test_refinement_matches_reference(n, m, options):
    cfg = SearchConfig(base_seed=5, refine_steps=60, **options).validate()
    *_, accepted = _assert_matches_reference(cfg, *_start(n, m, 11))
    assert accepted


def test_refinement_accept_heavy(monkeypatch):
    monkeypatch.setattr(hunt_module, "_REFINE_SCALE", 0.02)
    cfg = SearchConfig(base_seed=9, refine_steps=150, **OPEN_T).validate()
    *_, accepted = _assert_matches_reference(cfg, *_start(3, 2, 13))
    assert len(accepted) >= 8, accepted  # of 10 generations


def test_refinement_no_acceptance(monkeypatch):
    # a point refined once, then perturbed with steps too wide to improve it
    inst, params = _start(4, 3, 11)
    first = SearchConfig(base_seed=0, refine_steps=200).validate()
    margin, spec = _point_margin(inst, params, first.norms, first.condition_cap)
    inst, params, *_ = _reference_refine(first, inst, params, spec, margin)
    monkeypatch.setattr(hunt_module, "_REFINE_SCALE", 1.0)
    cfg = SearchConfig(base_seed=6, refine_steps=60).validate()
    *_, accepted = _assert_matches_reference(cfg, inst, params)
    assert accepted == []


def test_refinement_with_gated_candidates():
    # a cap just over the start's condition number gates part of its perturbations
    inst, params = _start(3, 2, 11, SpectrumLaw(1e-4, 1e4))
    cfg = SearchConfig(base_seed=5, refine_steps=60,
                       condition_cap=1.001 * float(inst.spectra.condition_max[0])).validate()
    *_, evaluated, gated, accepted = _assert_matches_reference(cfg, inst, params)
    assert gated > 0 and evaluated > 0 and accepted


def test_forced_hunt_matches_reference(monkeypatch):
    inst, params = _start(3, 2, 12)
    cfg = SearchConfig(base_seed=3, samples=1, refine_steps=60, **OPEN_T).validate()
    margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
    want_inst, want_params, want_spec, want_margin, evaluated, gated, _ = _reference_refine(
        cfg, inst, params, spec, margin)
    monkeypatch.setattr(hunt_module, "_sample_batches", _forced_sampling(inst, params))
    result = hunt(cfg)
    assert result.min_margin == want_margin
    assert (result.samples_evaluated, result.gated_count) == (1 + evaluated, gated)
    arg = result.argmin
    assert arg["params"] == want_params.as_dict() and arg["norm"] == want_spec.to_record()
    for got, want in zip(arg["A"] + arg["B"], [*want_inst.A, *want_inst.B]):
        assert np.array_equal(_lists_to_complex(got), want)


@pytest.mark.parametrize("refine_steps", [1, 16, 17, 60, 150])
def test_refinement_generations(monkeypatch, refine_steps):
    """Refinement evaluates exactly refine_steps candidates, in
    ceil(refine_steps / 16) stacked calls of 16, the last one holding
    what is left."""
    inst, params = _start(3, 2, 13)
    monkeypatch.setattr(hunt_module, "_REFINE_SCALE", 0.02)
    cfg = SearchConfig(base_seed=9, refine_steps=refine_steps, **OPEN_T).validate()
    search = _started(cfg, inst, params)
    real, sizes = hunt_module._stack_margins, []

    def stack_margins(A, B, rows, norms, condition_cap):
        sizes.append(len(rows["m"]))
        assert rows["m"].tolist() == [inst.m] * len(rows["m"])
        return real(A, B, rows, norms, condition_cap)

    monkeypatch.setattr(hunt_module, "_stack_margins", stack_margins)
    search = _refine(cfg, search)
    calls = math.ceil(refine_steps / 16)
    assert sizes == [16] * (calls - 1) + [refine_steps - 16 * (calls - 1)]
    assert search.evaluated - 1 + search.gated == refine_steps


def test_every_batch_carries_the_sample_columns(monkeypatch):
    """Every sampling batch and every refinement batch carries exactly the
    columns n, m, s, t, r, p and seed, of one dtype each, one row per
    candidate, with n the batch's matrix size and the pair counts m
    summing to its pairs."""
    monkeypatch.setattr(hunt_module, "_CHUNK_ENTRIES", 20 * 2 * 3 * 4 ** 2)  # chunks of 20
    cfg = SearchConfig(base_seed=5, samples=50, refine_steps=40, n_max=4, m_max=3).validate()
    real, batches = hunt_module._advance, []

    def advance(search, batch, cfg):
        batches.append(batch)
        real(search, batch, cfg)

    monkeypatch.setattr(hunt_module, "_advance", advance)
    hunt(cfg)
    dtypes = {"n": np.int64, "m": np.int64, "s": np.float64, "t": np.float64, "r": np.float64,
              "p": np.float64, "seed": np.uint64}
    sampling = [index[0] < cfg.samples for index, *_ in batches]
    assert sum(sampling) >= 3 and len(batches) - sum(sampling) == 3
    for index, A, B, rows in batches:
        assert tuple(rows) == tuple(dtypes)
        assert all(rows[name].dtype == dtype and rows[name].shape == index.shape
                   for name, dtype in dtypes.items())
        assert (rows["n"] == A.shape[-1]).all()
        assert rows["m"].sum() == len(A) == len(B)


def test_failure_at_a_reached_step_raises(monkeypatch):
    """Every candidate of a generation is evaluated, so a candidate that
    raises ends the hunt with its error, also one that would not be
    accepted: here the last candidate of the first generation."""
    inst, params = _start(3, 2, 12)
    cfg = SearchConfig(base_seed=3, samples=1, refine_steps=60).validate()
    poison = hunt_module._perturb(np.stack(inst.A), np.stack(inst.B), params, cfg, 0, 16)[0][-1]
    real, raised = hunt_module._stack_margins, []

    def stack_margins(A, B, rows, norms, condition_cap):
        if any(np.array_equal(Ai, poison) for Ai in np.split(A, np.cumsum(rows["m"])[:-1])):
            raised.append(len(rows["m"]))
            raise errors.NonConvergence("poisoned candidate")
        return real(A, B, rows, norms, condition_cap)

    monkeypatch.setattr(hunt_module, "_sample_batches", _forced_sampling(inst, params))
    monkeypatch.setattr(hunt_module, "_stack_margins", stack_margins)
    with pytest.raises(errors.NonConvergence, match="poisoned candidate"):
        hunt(cfg)
    assert raised == [16]  # the first generation's stacked call, and nothing after it


def test_ungated_stack_selects_nothing(monkeypatch):
    """`_stack_margins` evaluates a mixed-m stack with no gated instance on
    its one `InstanceSpectra`, building no stack of kept instances, and
    gives each instance the margin and winning norm it gets alone."""
    insts = [generate_instance("generic", 3, m, seed) for m, seed in ((1, 3), (2, 4), (3, 5))]
    points = [ChainParams(s=1.5, t=0.3), ChainParams(s=1.2, t=0.5, r=2.0),
              ChainParams(s=1.9, t=0.7, p=0.5)]
    rows = {"m": np.array([inst.m for inst in insts]),
            **{name: np.array([getattr(q, name) for q in points]) for name in "strp"}}
    A, B = (np.concatenate([getattr(inst, X) for inst in insts]) for X in "AB")
    specs = expand_norm_tokens(["kyfan:all", "schatten:2"], 3)
    alone = [_point_margin(inst, q, specs, 1e8) for inst, q in zip(insts, points)]
    real, built = hunt_module.InstanceSpectra, []

    def spectra(A, B, counts):
        built.append(np.asarray(counts).tolist())
        return real(A, B, counts)

    monkeypatch.setattr(hunt_module, "InstanceSpectra", spectra)
    gated, margin, winner = hunt_module._stack_margins(A, B, rows, specs, 1e8)
    assert max(float(inst.spectra.condition_max[0]) for inst in insts) <= 1e8
    assert not gated.any() and built == [rows["m"].tolist()]
    for k in range(len(insts)):
        assert (margin[k], specs[winner[k]]) == alone[k]


# (base seed, samples, fewest accepted generations) of two hunts: the
# first's refinement accepts no generation; the second's arg-min is an
# n = 4, m = 2 sample whose refinement accepts all 4.
@pytest.mark.parametrize("base_seed, samples, least_accepts", [(0, 200, 0), (18, 10, 4)])
def test_refinement_lapack_calls_per_generation(monkeypatch, base_seed, samples,
                                                least_accepts):
    """eigh, svd and qr calls of refinement stay within 12 per generation,
    and 60 steps take 4 generations; refining candidate by candidate makes
    about 13 calls per candidate."""
    cfg = SearchConfig(base_seed=base_seed, samples=samples, refine_steps=60, n_max=4, m_max=3,
                       t_range=(0.3, 0.7)).validate()
    calls, generations, accepts = [], [], []
    counting = [False]

    def counted(name, decompose):
        def call(*args, **kwargs):
            if counting[0]:
                calls.append(name)
            return decompose(*args, **kwargs)
        return call

    real_generations, real_perturb = hunt_module._generations, hunt_module._perturb

    def refinement(cfg, search):
        accepts.append(len(_reference_refine(cfg, search.inst, search.params, search.spec,
                                             search.margin)[-1]))
        counting[0] = True
        try:
            yield from real_generations(cfg, search)
        finally:
            counting[0] = False

    def perturb(*args):
        generations.append(args[-1])
        return real_perturb(*args)

    for name in ("eigh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(hunt_module, "_generations", refinement)
    monkeypatch.setattr(hunt_module, "_perturb", perturb)
    result = hunt(cfg)
    assert result.samples_evaluated + result.gated_count == cfg.samples + cfg.refine_steps
    assert generations == [16, 16, 16, 12] and accepts[0] >= least_accepts
    assert len(calls) <= 12 * len(generations), (len(calls), len(generations))


# The tie rule: the best point is the least (margin, number), over every
# batch.  Base seed 2 puts sample 0 at n = 4, m = 3, the last group of
# chunk 0's last batch, and sample 20, the first of chunk 1, at n = 3.
TIES = dict(base_seed=2, samples=70, refine_steps=40, n_max=4, m_max=3, t_range=(0.2, 0.8))


def _fake_margins(margin_of):
    """A `_stack_margins` giving the row of parameter s the margin
    margin_of(s) and winner 0, gated (margin inf, winner -1) where that
    margin is inf, as the real one gates."""
    def stack_margins(A, B, rows, norms, condition_cap):
        margin = np.array([margin_of(s) for s in rows["s"].tolist()])
        gated = margin == np.inf
        return gated, margin, np.where(gated, -1, 0)
    return stack_margins


def _assert_argmin_is_sample(result, cfg, k):
    """The result's arg-min is sample k: its instance and parameters."""
    row = _row(_sample_points(cfg, range(k, k + 1)), 0)
    inst, params, _ = argmin_point(result.argmin)
    want = generate_instance("generic", row["n"], row["m"], row["seed"], cfg.spectrum_law)
    assert inst.seed == row["seed"] and params == _params(row)
    assert np.array_equal(inst.A, want.A) and np.array_equal(inst.B, want.B)


def test_tie_rule(monkeypatch):
    """Equal margins everywhere: the arg-min is sample 0, whose batch is
    evaluated after others of its chunk, and no equal refinement candidate
    replaces it.  With chunk 0's samples all NaN or gated, none of them
    wins, nor does a NaN beside a finite margin in one batch: the arg-min
    is sample 20, and NaN candidates do not move it.
    With every sample NaN or gated there is no arg-min."""
    monkeypatch.setattr(hunt_module, "_CHUNK_ENTRIES", 20 * 2 * 3 * 4 ** 2)  # chunks of 20
    cfg = SearchConfig(**TIES).validate()
    chunk0 = _sample_points(cfg, range(20))
    assert chunk0["n"][0] != chunk0["n"].min()
    sampled = _sample_points(cfg, range(cfg.samples))["s"].tolist()

    monkeypatch.setattr(hunt_module, "_stack_margins", _fake_margins(lambda s: 0.25))
    result = hunt(cfg)
    assert result.min_margin == 0.25 and result.gated_count == 0
    assert result.samples_evaluated == cfg.samples + cfg.refine_steps
    _assert_argmin_is_sample(result, cfg, 0)

    # chunk 0 alternates NaN and gated, every third sample after it is
    # 0.25 and the others NaN, in the same batches; the candidates are NaN
    by_s = {s: (math.nan, math.inf)[k % 2] if k < 20 else (math.nan, 0.25)[k % 3 == 2]
            for k, s in enumerate(sampled)}
    monkeypatch.setattr(hunt_module, "_stack_margins", _fake_margins(
        lambda s: by_s.get(s, math.nan)))
    result = hunt(cfg)
    assert result.min_margin == 0.25 and result.gated_count == 10
    assert result.samples_evaluated == cfg.samples - 10 + cfg.refine_steps
    _assert_argmin_is_sample(result, cfg, 20)

    # every sample NaN or gated: no arg-min, and no refinement
    monkeypatch.setattr(hunt_module, "_stack_margins", _fake_margins(
        lambda s: (math.nan, math.inf)[sampled.index(s) % 2]))
    result = hunt(cfg)
    assert result.argmin is None and result.min_margin == math.inf
    assert (result.samples_evaluated, result.gated_count) == (35, 35)


def test_rank_puts_unevaluated_rows_after_refuted_ones(monkeypatch):
    """One batch holds refuted samples (m >= 2 and sr < 1) beside gated
    and NaN samples that are not refuted.  The arg-min is the least finite
    (margin, number) that is not refuted when there is one, else the least
    finite refuted one; a gated or NaN sample never wins, though it is not
    refuted and a refuted margin is less."""
    cfg = SearchConfig(base_seed=2, samples=60, s_range=(0.5, 1.5), n_max=1, m_max=3).validate()
    rows = _sample_points(cfg, range(cfg.samples))
    assert len(list(_sample_batches(cfg))) == 1
    refuted = ((rows["m"] >= 2) & (rows["s"] * rows["r"] < 1.0)).tolist()
    live = [k for k in range(cfg.samples) if not refuted[k]]
    assert 10 < len(live) < cfg.samples - 10
    sampled = rows["s"].tolist()

    def run(margins):
        monkeypatch.setattr(hunt_module, "_stack_margins",
                            _fake_margins(dict(zip(sampled, margins)).__getitem__))
        return hunt(cfg)

    # the first two live samples NaN and gated, the other live ones s,
    # every refuted one s - 2
    margins = [s - 2.0 if bad else s for s, bad in zip(sampled, refuted)]
    margins[live[0]], margins[live[1]] = math.nan, math.inf
    best = min(live[2:], key=lambda k: (margins[k], k))
    result = run(margins)
    assert result.argmin["status"] != "refuted" and result.min_margin == margins[best]
    _assert_argmin_is_sample(result, cfg, best)

    # every live sample NaN or gated: the least refuted one wins
    margins = [s - 2.0 if bad else (math.nan, math.inf)[k % 2]
               for k, (s, bad) in enumerate(zip(sampled, refuted))]
    best = min((k for k in range(cfg.samples) if refuted[k]), key=lambda k: (margins[k], k))
    result = run(margins)
    assert result.argmin["status"] == "refuted" and result.min_margin == margins[best]
    _assert_argmin_is_sample(result, cfg, best)
    assert result.gated_count == sum(margin == math.inf for margin in margins)


@pytest.mark.parametrize("options, chunk", [
    (WIDE, 50 * 2 * 3 * 9 ** 2),  # gates some samples
    (dict(samples=300, n_max=4, m_max=3, t_range=(0.2, 0.8)), 40 * 2 * 3 * 4 ** 2),
])
def test_argmin_instance_is_the_drawn_instance(monkeypatch, options, chunk):
    """Without refinement, the arg-min's pairs are bitwise the instance
    `generate_instance` draws from its seed, over 20 base seeds, with the
    samples in several chunks."""
    monkeypatch.setattr(hunt_module, "_CHUNK_ENTRIES", chunk)
    gated = 0
    for base_seed in range(20):
        cfg = SearchConfig(base_seed=base_seed, refine_steps=0, **options).validate()
        result = hunt(cfg)
        gated += result.gated_count
        inst, _, _ = argmin_point(result.argmin)
        want = generate_instance("generic", inst.n, inst.m, inst.seed, cfg.spectrum_law)
        assert np.array_equal(inst.A, want.A) and np.array_equal(inst.B, want.B), base_seed
    assert (gated > 0) == (options is WIDE)


# The faces decided in closed form, on seeded counter-based points: point k
# of cell (n, m) has key derive_seed(derive_seed(_FACES, 8n + m), k), its
# s, t, r and p are uniforms of the key's words 0 to 3, and its instance
# seed is word 4.
_FACES = 0x46414345


def _face_margins(n, m, count):
    """(s r, gated, margin) of `count` points of cell (n, m) at the
    default law, with s in (0.2, 4), t in [0, 1], r in (0.2, 3) and p in
    (0.2, 4), evaluated as one stack by `_stack_margins`."""
    keys = derive_seed(derive_seed(_FACES, 8 * n + m), np.arange(count, dtype=np.uint64))

    def uniform(f, lo, hi):
        return lo + (hi - lo) * ((derive_seed(keys, f) >> 11) * 2.0 ** -53)

    rows = {"m": np.full(count, m), "s": uniform(0, 0.2, 4.0), "t": uniform(1, 0.0, 1.0),
            "r": uniform(2, 0.2, 3.0), "p": uniform(3, 0.2, 4.0)}
    A, B = draw_instances("generic", n, m, derive_seed(keys, 4))
    gated, margin, _ = hunt_module._stack_margins(A.reshape(-1, n, n), B.reshape(-1, n, n), rows,
                                                  ["kyfan:all"], DEFAULT_CONDITION_CAP)
    return rows["s"] * rows["r"], gated, margin


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pair_face_passes(n):
    """m = 1: A^s #_t B^s is log-majorized by the sandwich (Ando and Hiai,
    Linear Algebra Appl. 197/198, 1994), and the sandwich's powers by the
    sandwich of powers (Araki, Lett. Math. Phys. 19, 1990), for every s, t,
    r, p > 0; so every margin is a pass, to round-off."""
    _, gated, margin = _face_margins(n, 1, 1000)
    assert not gated.any() and margin.min() >= -1e-8


@pytest.mark.parametrize("m", [2, 3, 4])
def test_scalar_face_passes(m):
    """n = 1, sr >= 1: sum_i (a_i^(1-t) b_i^t)^(sr) <= (sum_i a_i^(1-t)
    b_i^t)^(sr) by superadditivity of x^(sr), and sum_i a_i^(1-t) b_i^t
    <= (sum a)^(1-t) (sum b)^t by Hoelder; so every margin is a pass, to
    round-off."""
    sr, gated, margin = _face_margins(1, m, 1500)
    face = sr >= 1.0
    assert face.sum() >= 1000
    assert not gated.any() and margin[face].min() >= -1e-8


def _least_by_status(cfg) -> dict:
    """Refuted (True or False) -> the least (margin, number) of the samples
    of that status, (inf, -1) if none, each sample evaluated in its batch."""
    least = {False: (math.inf, -1), True: (math.inf, -1)}
    for index, A, B, rows in _sample_batches(cfg):
        _, margin, _ = hunt_module._stack_margins(A, B, rows, cfg.norms, cfg.condition_cap)
        for j, k in enumerate(index.tolist()):
            params = ChainParams(**{name: float(rows[name][j]) for name in "srpt"})
            refuted = point_status("t-chain", params, int(rows["m"][j])) == "refuted"
            least[refuted] = min(least[refuted], (float(margin[j]), k))
    return least


def test_refuted_samples_rank_after_the_others():
    """`hunt --s-lo 0.5 --s-hi 1.5 --samples 2000 --n-max 3 --m-max 3`
    ended on a refuted sample (n = 1, m = 3, s = 0.5024).  Its arg-min is
    now the least (margin, number) of the samples that are not refuted,
    though refuted ones have smaller margins."""
    cfg = SearchConfig(samples=2000, s_range=(0.5, 1.5), n_max=3, m_max=3).validate()
    least = _least_by_status(cfg)
    assert least[True][0] < least[False][0] < math.inf
    result = hunt(cfg)
    assert result.argmin["status"] != "refuted"
    assert result.min_margin == least[False][0]
    inst, params, _ = argmin_point(result.argmin)
    assert _sample_points(cfg, range(least[False][1], least[False][1] + 1))["seed"][0] == inst.seed


def test_all_refuted_range_keeps_the_least_margin():
    """When every sample is refuted (s = 0.5, and seed 50's first 12
    samples all have m >= 2), the arg-min is the least (margin, number)
    of them all, as before refuted samples ranked last."""
    cfg = SearchConfig(base_seed=50, samples=12, s_range=(0.5, 0.5), n_max=3, m_max=3).validate()
    least = _least_by_status(cfg)
    assert least[False] == (math.inf, -1)
    result = hunt(cfg)
    assert result.argmin["status"] == "refuted" and result.min_margin == least[True][0]
    inst, _, _ = argmin_point(result.argmin)
    assert _sample_points(cfg, range(least[True][1], least[True][1] + 1))["seed"][0] == inst.seed
