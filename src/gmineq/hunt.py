"""Counterexample hunting for the open weighted-chain conjecture region.

Random sampling over (instance, s, t, r, p) followed by refinement of the
best point by generations of perturbations.  A negative margin beyond
tolerance is never claimed as a counterexample: outside a refuted regime
it is re-evaluated in extended precision and reported as a violation
candidate.

The hunt is one loop over batches of candidates, `(index, A, B, rows)`:
the candidates' numbers, their pairs (sum(m), n, n) laid end to end, and
their columns m, s, t, r, p and seed.  The sampling phase yields one batch
per n of each chunk of samples (at most _CHUNK_ENTRIES matrix entries of
the largest instances; `_sample_batches`): the columns are counter-based
`derive_seed` words of the sample numbers (`_sample_points`), and each
(n, m) group is drawn as one stack.  Each refinement generation is one
batch: _GENERATION perturbations of the best point from one seeded stream
(`_perturb`), numbered after the samples (`_generations`).  `_advance`
evaluates a batch by one `_stack_margins` call, counts its gated and
evaluated points, and moves the best point to the batch's least
(refuted, margin, number), one `np.lexsort` over the batch's statuses
from one `chains.point_status` call, when that is below the best point's
own; a gated or NaN margin ranks as refuted and never wins.  So a point
of a refuted regime is the arg-min only when no other point was
evaluated, sampling ends on the first smallest margin in sample order
among the others, and a candidate moves the point only when it ranks
lower.
The best point keeps a copy of the winner's pairs, which refinement
perturbs and the result records.  Sampling, refinement and
`evaluate_argmin` all evaluate through `_stack_margins`, so every point
gets the bytes it gets alone, and the report does not depend on the
chunks.  A gated point (condition number over the cap) is counted and not
evaluated.

This module holds only the search: the result's file format, the
arg-min record included, is `reports`'s (`SearchResult`, `argmin_record`,
`argmin_point`), and `evaluate_argmin` parses a record there and
re-evaluates it by `_point_margin`.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import errors, highprec
from .blocks import InstanceSet
from .chains import (
    DEFAULT_CONDITION_CAP,
    DEFAULT_TOL_REL,
    ChainParams,
    InstanceSpectra,
    chain_margins,
    expand_norm_tokens,
    point_status,
    t_chain_sides,
    validate_run_fields,
)
from .generate import DEFAULT_LAW, SpectrumLaw, Words, derive_seed, draw_instances, normals
from .linalg import from_spectrum, hermitian_eig
from .norms import NormSpec, norm_values
from .reports import SearchResult, argmin_point, argmin_record

_REFINE_TAG = 0x52464E45  # distinct seed stream for refinement generations
# Candidates of one refinement generation, drawn and evaluated as one stack.
_GENERATION = 16
# A chunk of the sampling phase holds at most this many matrix entries (16
# bytes each) of instances, or one sample when a single one holds more.
_CHUNK_ENTRIES = 1 << 18
# The columns of a batch's rows.
_ROW_COLUMNS = ("m", "s", "t", "r", "p", "seed")


@dataclass
class SearchConfig:
    base_seed: int = 7
    samples: int = 1000
    refine_steps: int = 0
    refine_scale: float = 0.05
    s_range: tuple = (1.0, 2.0)
    t_range: tuple = (0.5, 0.5)
    r_values: list = field(default_factory=lambda: [1.0])
    p_values: list = field(default_factory=lambda: [1.0])
    n_max: int = 4
    m_max: int = 3
    spectrum_law: SpectrumLaw = DEFAULT_LAW
    norms: list = field(default_factory=lambda: ["kyfan:all"])
    tol_rel: float = DEFAULT_TOL_REL
    condition_cap: float = DEFAULT_CONDITION_CAP

    def validate(self) -> "SearchConfig":
        errors.require_all(numbers.Integral,
                           [self.samples, self.refine_steps, self.n_max, self.m_max],
                           "samples, refine_steps, n_max and m_max must be integers")
        errors.require_all(numbers.Real, [self.refine_scale], "refine_scale must be a number")
        validate_run_fields(self)
        for name in ("s_range", "t_range"):
            pair = getattr(self, name)
            message = f"{name} must be a pair of numbers, got {pair!r}"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise errors.ConfigError(message)
            errors.require_all(numbers.Real, pair, message)
            errors.require_finite(name, pair)
        for name in ("r_values", "p_values"):
            values = getattr(self, name)
            message = f"{name} must be a nonempty list of positive numbers, got {values!r}"
            if not isinstance(values, (list, tuple)) or not values:
                raise errors.ConfigError(message)
            errors.require_all(numbers.Real, values, message)
            errors.require_finite(name, values)
            if not all(v > 0.0 for v in values):
                raise errors.ConfigError(message)
        if self.samples < 1:
            raise errors.ConfigError("samples must be >= 1")
        if self.refine_steps < 0 or not 0.0 < self.refine_scale < math.inf:
            raise errors.ConfigError("refine_steps >= 0 and a finite refine_scale > 0 required")
        if not (0.0 < self.s_range[0] <= self.s_range[1]):
            raise errors.ConfigError(f"invalid s_range {self.s_range}")
        if not (0.0 <= self.t_range[0] <= self.t_range[1] <= 1.0):
            raise errors.ConfigError(f"invalid t_range {self.t_range}")
        if self.n_max < 1 or self.m_max < 1:
            raise errors.ConfigError("n_max and m_max must be >= 1")
        return self


def _sample_points(cfg: SearchConfig, block: range) -> dict:
    """The columns of the samples k in `block`: n and m (int64), s, t, r
    and p (float64), and the instance seed (uint64).  Field f of sample k,
    in the order n, m, s, t, r, p, is the word
    `derive_seed(derive_seed(base_seed, k), f)`: an integer in [0, b) is the
    word modulo b (n and m count from 1, r and p index their lists), and a
    uniform is lo + (hi - lo) times the word's top 53 bits over 2**53.  The
    instance seed is `derive_seed(base_seed, 2k + 1)`."""
    ks = np.array(block, np.uint64)
    keys = derive_seed(cfg.base_seed, ks)
    n, m, s, t, r, p = (derive_seed(keys, f) for f in range(6))

    def below(word, bound):
        return (word % int(bound)).astype(np.int64)

    def uniform(word, bounds):
        lo, hi = float(bounds[0]), float(bounds[1])
        return lo + (hi - lo) * ((word >> 11) * 2.0 ** -53)

    return {"n": 1 + below(n, cfg.n_max), "m": 1 + below(m, cfg.m_max),
            "s": uniform(s, cfg.s_range), "t": uniform(t, cfg.t_range),
            "r": np.array(cfg.r_values, np.float64)[below(r, len(cfg.r_values))],
            "p": np.array(cfg.p_values, np.float64)[below(p, len(cfg.p_values))],
            "seed": derive_seed(cfg.base_seed, (ks << 1) | 1)}


def _stack_margins(A: np.ndarray, B: np.ndarray, rows: dict, norms, condition_cap) -> tuple:
    """The weighted chain on a stack of K instances of one n, one point
    each: (gated, margin, winner), arrays (K,).  A and B are the
    instances' pairs (sum(m), n, n) laid end to end (`InstanceSpectra`),
    and `rows` has the columns m (the pair counts), s, t, r and p.  margin
    is the least over the norms of (rhs - lhs) / max(1, rhs)
    (`chain_margins`), and winner the index in
    `expand_norm_tokens(norms, n)` of the first norm attaining it.  A gated
    instance (over the condition cap) is not evaluated: margin inf, winner
    -1; the kept ones are evaluated on a stack of their own pairs."""
    counts = rows["m"]
    spectra = InstanceSpectra(A, B, counts)
    gated = spectra.condition_max > condition_cap
    margin, winner = np.full(gated.shape, np.inf), np.full(gated.shape, -1)
    keep = ~gated
    if keep.any():
        if not keep.all():
            pairs = np.repeat(keep, counts)
            spectra = InstanceSpectra(A[pairs], B[pairs], counts[keep])
        lhs_sv, _, rhs_sv = t_chain_sides(spectra, *(rows[name][keep] for name in "strp"))
        specs = expand_norm_tokens(norms, A.shape[-1])
        _, least, scale, _ = chain_margins(norm_values(lhs_sv, specs), None,
                                           norm_values(rhs_sv, specs))
        value = least / scale
        winner[keep], margin[keep] = value.argmin(axis=-1), value.min(axis=-1)
    return gated, margin, winner


def _point_margin(inst: InstanceSet, params: ChainParams, norms, condition_cap):
    """(margin, spec) of one point through `_stack_margins`, a table of
    one row; (None, None) when gated."""
    row = {"m": np.array([inst.m]),
           **{name: np.array([getattr(params, name)], np.float64) for name in "strp"}}
    gated, margin, winner = _stack_margins(inst.A, inst.B, row, norms, condition_cap)
    return (None, None) if gated[0] else (float(margin[0]),
                                          expand_norm_tokens(norms, inst.n)[winner[0]])


@dataclass
class _Search:
    """A hunt's counts of evaluated and gated points, and its best point:
    whether it is in a refuted regime, its margin and number (True, inf
    and -1 until a point is evaluated; the sample number, or samples + j
    for refinement candidate j), its instance (a copy of the winner's
    pairs, with its instance seed), parameters and winning norm."""
    evaluated: int = 0
    gated: int = 0
    refuted: bool = True
    margin: float = math.inf
    index: int = -1
    inst: InstanceSet | None = None
    params: ChainParams | None = None
    spec: NormSpec | None = None


def _advance(search: _Search, batch: tuple, cfg: SearchConfig) -> None:
    """Evaluate the batch `(index, A, B, rows)` by one `_stack_margins`
    call, count its gated and evaluated points, and move the best point to
    the batch's least (refuted, margin, index) when that is below the best
    point's own.  The batch's statuses are one `chains.point_status` call
    on its columns, and a gated or NaN margin ranks as refuted, so one
    `np.lexsort` of (refuted, margin, index) puts first the least finite
    margin that is not refuted, if any, else the least refuted one; a
    gated or NaN margin never wins."""
    index, A, B, rows = batch
    gated, margin, winner = _stack_margins(A, B, rows, cfg.norms, cfg.condition_cap)
    search.gated += int(gated.sum())
    search.evaluated += int((~gated).sum())
    status = point_status("t-chain", ChainParams(*(rows[name] for name in "srpt")), rows["m"])
    refuted = (status == "refuted") | ~(margin < math.inf)
    j = np.lexsort((index, margin, refuted))[0]
    # false for a NaN margin, and for a gated one (inf) since (True, inf, -1) starts the search
    if (refuted[j], margin[j], index[j]) < (search.refuted, search.margin, search.index):
        m, n, start = int(rows["m"][j]), A.shape[-1], int(rows["m"][:j].sum())
        search.inst = InstanceSet(m=m, n=n, A=A[start:start + m], B=B[start:start + m],
                                  seed=int(rows["seed"][j]))
        search.params = ChainParams(**{name: float(rows[name][j]) for name in "srpt"})
        search.refuted, search.margin = bool(refuted[j]), float(margin[j])
        search.index = int(index[j])
        search.spec = expand_norm_tokens(cfg.norms, n)[winner[j]]


def _sample_batches(cfg: SearchConfig):
    """The sampling phase as batches `(index, A, B, rows)`, one per n of
    each chunk of samples, in chunk order: the batch's sample numbers, its
    instances' pairs (sum(m), n, n) laid end to end, and its columns m, s,
    t, r, p and seed (`_sample_points`).  Each (n, m) group is drawn as
    one stack, and the batch holds the groups in increasing m."""
    size = max(1, _CHUNK_ENTRIES // (2 * cfg.m_max * cfg.n_max ** 2))
    for start in range(0, cfg.samples, size):
        columns = _sample_points(cfg, range(start, min(start + size, cfg.samples)))
        for n in sorted(set(columns["n"].tolist())):
            at_n = columns["n"] == n
            groups = {m: np.flatnonzero(at_n & (columns["m"] == m))
                      for m in sorted(set(columns["m"][at_n].tolist()))}
            draws = [draw_instances("generic", n, m, columns["seed"][group], cfg.spectrum_law)
                     for m, group in groups.items()]
            rows = np.concatenate(list(groups.values()))
            A, B = (np.concatenate([X.reshape(-1, n, n) for X in part]) for part in zip(*draws))
            yield start + rows, A, B, {name: columns[name][rows] for name in _ROW_COLUMNS}


def _perturb(A: np.ndarray, B: np.ndarray, params: ChainParams, cfg: SearchConfig,
             generation: int, size: int) -> tuple:
    """The `size` candidates of refinement generation `generation`, each a
    perturbation of the point (A, B, params), A and B (m, n, n): stacks
    (size, m, n, n) and the candidates' s and t, arrays (size,).  Every
    matrix gets a multiplicative eigenvalue jitter and a small basis
    rotation, which preserve positive definiteness; s and t get a clipped
    jitter where their range is not a single value.  All the generation's
    noise is normals (`generate.normals`) of one `take` of words of the
    stream of key `derive_seed(base_seed ^ _REFINE_TAG, generation)`:
    candidate by candidate, per matrix (the A_i, then the B_i) n
    eigenvalue factors and the real and imaginary parts of an n x n
    Ginibre matrix, then two normals, taken in turn by the s and t jitters
    that apply.  The point is decomposed once, and the rotations and
    products are one stacked call each.  A scale so large that the
    arithmetic overflows raises no warning here: the evaluation of the
    candidate it spoils raises `errors.NonFiniteInput`."""
    m, n = A.shape[0], A.shape[-1]
    scale = cfg.refine_scale
    s, t = np.full(size, params.s), np.full(size, params.t)
    jittered = [(v, lo, hi) for v, (lo, hi) in ((s, cfg.s_range), (t, cfg.t_range)) if hi > lo]
    width = 2 * m * (n + 2 * n * n)
    words = Words(derive_seed(cfg.base_seed ^ _REFINE_TAG, generation))
    draws = normals(words.take(size * (width + 2)).reshape(size, width + 2))
    noise = draws[:, :width].reshape(size, 2 * m, n + 2 * n * n)
    shape = noise.shape[:2] + (n, n)
    G = (noise[..., n:n + n * n].reshape(shape)
         + 1j * noise[..., n + n * n:].reshape(shape)) / np.sqrt(2.0)
    eig = hermitian_eig(np.concatenate([A, B]))
    with np.errstate(over="ignore", invalid="ignore"):
        for (values, lo, hi), z in zip(jittered, draws[:, width:].T):
            values[:] = np.clip(values + scale * (hi - lo) * z, lo, hi)
        lam = eig.eigenvalues * np.exp(scale * noise[..., :n])
        Q, _ = np.linalg.qr(np.eye(n) + scale * G)
        X = from_spectrum(eig.vectors @ Q, lam)
    return X[:, :m], X[:, m:], s, t


def _generations(cfg: SearchConfig, search: _Search):
    """The refinement batches, in generations of _GENERATION candidates
    (the last one holds what is left of cfg.refine_steps): a generation is
    `_perturb`'s candidates of the best point at its start, numbered after
    the samples and the earlier generations, so that a candidate moves the
    point only when it ranks lower (`_advance`).  There is none when no
    sample was evaluated."""
    for generation, start in enumerate(range(0, cfg.refine_steps, _GENERATION)):
        if search.inst is None:
            return
        size, inst, params = min(_GENERATION, cfg.refine_steps - start), search.inst, search.params
        A, B, s, t = _perturb(inst.A, inst.B, params, cfg, generation, size)
        rows = {"m": np.full(size, inst.m), "s": s, "t": t, "r": np.full(size, params.r),
                "p": np.full(size, params.p), "seed": np.full(size, inst.seed, np.uint64)}
        yield (cfg.samples + start + np.arange(size), A.reshape(-1, inst.n, inst.n),
               B.reshape(-1, inst.n, inst.n), rows)


def evaluate_argmin(result_or_argmin, condition_cap: float = DEFAULT_CONDITION_CAP) -> float | None:
    """Re-evaluate a serialized arg-min point; returns its normalized
    margin, or None when the point is gated under `condition_cap` or the
    result has no arg-min (every sample was gated)."""
    arg = result_or_argmin.argmin if isinstance(result_or_argmin, SearchResult) else result_or_argmin
    if arg is None:
        return None
    inst, params, spec = argmin_point(arg)
    return _point_margin(inst, params, [spec], condition_cap)[0]


def hunt(cfg: SearchConfig) -> SearchResult:
    """Random search over the configured conjecture region, then
    refinement of its best point: one loop over the sample batches and the
    refinement generations, each advancing the best point (`_advance`)."""
    cfg.validate()
    t0 = time.perf_counter()
    search = _Search()
    for batch in itertools.chain(_sample_batches(cfg), _generations(cfg, search)):
        _advance(search, batch, cfg)
    candidate, recheck, argmin = False, None, None
    if search.inst is not None:
        argmin = argmin_record(search.inst, search.params, search.spec, search.margin)
        if search.margin < -cfg.tol_rel and argmin["status"] != "refuted":
            # confirm in extended precision before surfacing
            recheck = highprec.t_chain_margin(search.inst.A, search.inst.B, search.params,
                                              search.spec)
            candidate = recheck < -cfg.tol_rel
    return SearchResult(
        base_seed=cfg.base_seed,
        samples_evaluated=search.evaluated,
        gated_count=search.gated,
        min_margin=search.margin,
        candidate=candidate,
        recheck_margin=recheck,
        argmin=argmin,
        wall_seconds=time.perf_counter() - t0,
    )
