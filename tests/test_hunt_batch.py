"""The hunt's stacked phases against one-at-a-time evaluation.

The sampling phase computes its samples' columns from counter-based
words, and generates and evaluates each (n, m) group of samples as one
stack.  Every sample must come out bitwise as it does alone: the same
columns as `_sample_points` gives it in a block of one, and the same
gated flag, margin and winning norm as a direct evaluation of the
instance `generate_instance` regenerates from its seed, through
`t_chain_terms` and `reports.chain_records`.  The parameters themselves
must be uniform on their ranges, and must not depend on the blocks they
are computed in.  A stack with no gated instance is evaluated as it is.

Refinement runs in generations, each drawn from the words of one stream
and evaluated as one stack.  It must come out bitwise as
`_reference_refine`, which draws each candidate in turn from its own
words of the generation's stream, computed one by one, and evaluates it
alone.
"""

import importlib
import math

import numpy as np
import pytest

from gmineq import errors
from gmineq.blocks import InstanceSet
from gmineq.chains import ChainParams, condition_max, expand_norm_tokens, t_chain_terms
from gmineq import generate
from gmineq.generate import SpectrumLaw, derive_seed, generate_instance, normals
from gmineq.hunt import SearchConfig, _point_margin, _sample_points, _sampling_phase, hunt
from gmineq.linalg import hermitian_eig, hermitize
from gmineq.reports import _lists_to_complex, chain_records

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
        rec, = chain_records(terms, inst, params, [spec]).records
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bucketed_sampling_matches_sample_by_sample(monkeypatch, seed):
    # chunks of 50 samples, so that the 160 samples take four of them
    monkeypatch.setattr(hunt_module, "_CHUNK_ENTRIES", 50 * 2 * 3 * 9 ** 2)
    cfg = SearchConfig(base_seed=seed, **WIDE).validate()
    chunks = list(_sampling_phase(cfg))
    assert [len(gated) for _, gated, _, _ in chunks] == [50, 50, 50, 10]
    columns = _concat([chunk[0] for chunk in chunks])
    gated, margin, winner = (np.concatenate(part) for part in zip(*(c[1:] for c in chunks)))
    gated_seen, dims_seen = 0, set()
    for k in range(cfg.samples):
        assert _same_columns({name: column[k:k + 1] for name, column in columns.items()},
                             _sample_points(cfg, range(k, k + 1)))
        row = _row(columns, k)
        inst = generate_instance("generic", row["n"], row["m"], row["seed"], cfg.spectrum_law)
        params = _params(row)
        # gated samples can be too ill-conditioned for their terms: check the cap first
        if inst.spectra.condition_max > cfg.condition_cap:
            gated_seen += 1
            assert gated[k] and margin[k] == np.inf and winner[k] == -1
            assert _point_margin(inst, params, cfg.norms, cfg.condition_cap) == (None, None)
            continue
        is_gated, want, want_spec = _direct_margin(inst, params, cfg.norms, cfg.condition_cap)
        assert not is_gated and not gated[k]
        spec = expand_norm_tokens(cfg.norms, row["n"])[winner[k]]
        assert margin[k] == want and spec == want_spec, k
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
    list(_sampling_phase(cfg))
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
    A = [_reference_perturb_matrix(Ai, rng, cfg.refine_scale) for Ai in inst.A]
    B = [_reference_perturb_matrix(Bi, rng, cfg.refine_scale) for Bi in inst.B]
    new_inst = InstanceSet(m=inst.m, n=inst.n, A=A, B=B, seed=inst.seed, kind="generic")

    def jitter(v, lo, hi):
        if hi <= lo:
            return v
        return float(np.clip(v + cfg.refine_scale * (hi - lo) * rng.standard_normal()[()], lo, hi))

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


def _forced_sampling(inst, params):
    """A sampling phase of one sample, the point (inst, params); the hunt
    regenerates inst from its seed."""
    def sampling_phase(cfg):
        margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
        columns = {"n": np.array([inst.n]), "m": np.array([inst.m]),
                   **{name: np.array([getattr(params, name)]) for name in "strp"},
                   "seed": np.array([inst.seed], np.uint64)}
        yield (columns, np.array([False]), np.array([margin]),
               np.array([expand_norm_tokens(cfg.norms, inst.n).index(spec)]))
    return sampling_phase


def _assert_matches_reference(cfg, inst, params):
    """Refinement from (inst, params) equals the reference bitwise;
    returns the reference's result."""
    margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
    assert margin is not None
    want = _reference_refine(cfg, inst, params, spec, margin)
    got = hunt_module._refine(cfg, np.stack(inst.A), np.stack(inst.B), params, spec, margin)
    want_inst, want_params, want_spec, want_margin, want_evaluated, want_gated, _ = want
    A, B, got_params, got_spec, got_margin, evaluated, gated = got
    assert got_margin == want_margin
    assert got_spec == want_spec and got_params == want_params
    assert np.array_equal(A, np.stack(want_inst.A)) and np.array_equal(B, np.stack(want_inst.B))
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


def test_refinement_accept_heavy():
    cfg = SearchConfig(base_seed=9, refine_steps=150, refine_scale=0.02, **OPEN_T).validate()
    *_, accepted = _assert_matches_reference(cfg, *_start(3, 2, 13))
    assert len(accepted) >= 8, accepted  # of 10 generations


def test_refinement_no_acceptance():
    # a point refined once, then perturbed with steps too wide to improve it
    inst, params = _start(4, 3, 11)
    first = SearchConfig(base_seed=0, refine_steps=200).validate()
    margin, spec = _point_margin(inst, params, first.norms, first.condition_cap)
    inst, params, *_ = _reference_refine(first, inst, params, spec, margin)
    cfg = SearchConfig(base_seed=6, refine_steps=60, refine_scale=1.0).validate()
    *_, accepted = _assert_matches_reference(cfg, inst, params)
    assert accepted == []


def test_refinement_with_gated_candidates():
    # a cap just over the start's condition number gates part of its perturbations
    inst, params = _start(3, 2, 11, SpectrumLaw(1e-4, 1e4))
    cfg = SearchConfig(base_seed=5, refine_steps=60,
                       condition_cap=1.001 * condition_max(inst)).validate()
    *_, evaluated, gated, accepted = _assert_matches_reference(cfg, inst, params)
    assert gated > 0 and evaluated > 0 and accepted


def test_forced_hunt_matches_reference(monkeypatch):
    inst, params = _start(3, 2, 12)
    cfg = SearchConfig(base_seed=3, samples=1, refine_steps=60, **OPEN_T).validate()
    margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
    want_inst, want_params, want_spec, want_margin, evaluated, gated, _ = _reference_refine(
        cfg, inst, params, spec, margin)
    monkeypatch.setattr(hunt_module, "_sampling_phase", _forced_sampling(inst, params))
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
    cfg = SearchConfig(base_seed=9, refine_steps=refine_steps, refine_scale=0.02,
                       **OPEN_T).validate()
    margin, spec = _point_margin(inst, params, cfg.norms, cfg.condition_cap)
    real, sizes = hunt_module._stack_margins, []

    def stack_margins(A, B, rows, norms, condition_cap):
        sizes.append(len(rows["m"]))
        assert rows["m"].tolist() == [inst.m] * len(rows["m"])
        return real(A, B, rows, norms, condition_cap)

    monkeypatch.setattr(hunt_module, "_stack_margins", stack_margins)
    *_, evaluated, gated = hunt_module._refine(cfg, np.stack(inst.A), np.stack(inst.B), params,
                                               spec, margin)
    calls = math.ceil(refine_steps / 16)
    assert sizes == [16] * (calls - 1) + [refine_steps - 16 * (calls - 1)]
    assert evaluated + gated == refine_steps


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

    monkeypatch.setattr(hunt_module, "_sampling_phase", _forced_sampling(inst, params))
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
    assert max(condition_max(inst) for inst in insts) <= 1e8
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

    real_refine, real_perturb = hunt_module._refine, hunt_module._perturb

    def refine(cfg, A, B, params, spec, margin):
        inst = InstanceSet(m=A.shape[0], n=A.shape[-1], A=A, B=B)
        accepts.append(len(_reference_refine(cfg, inst, params, spec, margin)[-1]))
        counting[0] = True
        try:
            return real_refine(cfg, A, B, params, spec, margin)
        finally:
            counting[0] = False

    def perturb(*args):
        generations.append(args[-1])
        return real_perturb(*args)

    for name in ("eigh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(hunt_module, "_refine", refine)
    monkeypatch.setattr(hunt_module, "_perturb", perturb)
    result = hunt(cfg)
    assert result.samples_evaluated + result.gated_count == cfg.samples + cfg.refine_steps
    assert generations == [16, 16, 16, 12] and accepts[0] >= least_accepts
    assert len(calls) <= 12 * len(generations), (len(calls), len(generations))
