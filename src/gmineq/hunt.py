"""Counterexample hunting for the open weighted-chain conjecture region.

Random sampling over (instance, s, t, r, p) followed by local perturbation
descent from the worst point.  A negative margin beyond tolerance is never
claimed as a counterexample: it is re-evaluated in extended precision and
reported as a violation candidate.

The sampling phase is bucketed: each sample draws its parameters and its
instance's random numbers from its own seeded streams, the samples are
grouped by (n, m), and each group is generated and evaluated as one stack
(one call per kernel step; see `linalg`).  The arg-min is then taken in
sample order, the first sample winning a tie.  Refinement is sequential,
and it and `evaluate_argmin` evaluate a stack of one through the same
`_stack_margins`, so every sample gets the bytes it gets alone and the
report does not depend on the bucketing.  A gated sample (condition
number over the cap) is counted and not evaluated.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import errors, highprec
from .blocks import InstanceSet
from .chains import (
    ChainParams,
    InstanceSpectra,
    chain_margins,
    expand_norm_tokens,
    t_chain_sides,
    t_chain_status,
    validate_run_fields,
)
from .generate import DEFAULT_LAW, SpectrumLaw, assemble_instances, derive_seed, draw_instance
from .linalg import hermitian_eig, hermitize
from .norms import NormSpec, norm_values
from .reports import SCHEMA_VERSION

_REFINE_TAG = 0x52464E45  # distinct seed stream for refinement steps
# The sampling phase holds about this many matrix entries (16 bytes each) of
# instances at a time.
_CHUNK_ENTRIES = 1 << 18


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
    tol_rel: float = 1e-8
    condition_cap: float = 1e8

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
        for name in ("r_values", "p_values"):
            values = getattr(self, name)
            message = f"{name} must be a nonempty list of positive numbers, got {values!r}"
            if not isinstance(values, (list, tuple)) or not values:
                raise errors.ConfigError(message)
            errors.require_all(numbers.Real, values, message)
            if not all(v > 0.0 for v in values):
                raise errors.ConfigError(message)
        if self.samples < 1:
            raise errors.ConfigError("samples must be >= 1")
        if self.refine_steps < 0 or self.refine_scale <= 0.0:
            raise errors.ConfigError("refine_steps >= 0 and refine_scale > 0 required")
        if not (0.0 < self.s_range[0] <= self.s_range[1]):
            raise errors.ConfigError(f"invalid s_range {self.s_range}")
        if not (0.0 <= self.t_range[0] <= self.t_range[1] <= 1.0):
            raise errors.ConfigError(f"invalid t_range {self.t_range}")
        if self.n_max < 1 or self.m_max < 1:
            raise errors.ConfigError("n_max and m_max must be >= 1")
        return self


def _complex_to_lists(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, dtype=np.complex128)]


def _lists_to_complex(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


@dataclass
class SearchResult:
    """Minimum normalized margin found and a reproducible arg-min point.

    wall_seconds is informational and excluded from serialization so that
    repeated runs write byte-identical files.
    """

    min_margin: float
    argmin: dict | None
    samples_evaluated: int
    gated_count: int
    base_seed: int
    candidate: bool
    recheck_margin: float | None
    wall_seconds: float = 0.0

    def to_record(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "search_result",
            "base_seed": self.base_seed,
            "samples_evaluated": self.samples_evaluated,
            "gated_count": self.gated_count,
            "min_margin": self.min_margin,
            "candidate": self.candidate,
            "recheck_margin": self.recheck_margin,
            "argmin": self.argmin,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "SearchResult":
        return cls(
            min_margin=float(rec["min_margin"]),  # "inf" when every sample was gated
            argmin=rec["argmin"],
            samples_evaluated=rec["samples_evaluated"],
            gated_count=rec["gated_count"],
            base_seed=rec["base_seed"],
            candidate=rec["candidate"],
            recheck_margin=rec["recheck_margin"],
        )


def _sample_point(cfg: SearchConfig, k: int) -> tuple:
    """(n, m, params, instance seed) of sample k."""
    rng = np.random.default_rng(derive_seed(cfg.base_seed, k))
    n = int(rng.integers(1, cfg.n_max + 1))
    m = int(rng.integers(1, cfg.m_max + 1))
    s = float(rng.uniform(*cfg.s_range))
    t = float(rng.uniform(*cfg.t_range))
    r = float(cfg.r_values[int(rng.integers(0, len(cfg.r_values)))])
    p = float(cfg.p_values[int(rng.integers(0, len(cfg.p_values)))])
    return n, m, ChainParams(s=s, r=r, p=p, t=t), derive_seed(cfg.base_seed, (k << 1) | 1)


def _stack_margins(A: np.ndarray, B: np.ndarray, params, norms, condition_cap) -> tuple:
    """The weighted chain on a stack of K equal-shape instances (A and B
    are (K, m, n, n)), one parameter point each: (gated, margin, spec) per
    instance.  margin is the smallest over the norms of min margin / scale
    under `chain_margins`, (rhs - lhs) / max(1, rhs); the first such norm
    wins a tie.  Gated instances (over the condition cap) are not
    evaluated; their margin is inf and their spec None."""
    spectra = InstanceSpectra(A, B)
    gated = spectra.condition_max > condition_cap
    margin = np.full(gated.shape, np.inf)
    winner = np.full(gated.shape, -1)
    specs = expand_norm_tokens(norms, A.shape[-1])
    keep = np.flatnonzero(~gated)
    if keep.size and specs:
        s, t, r, p = np.array([(q.s, q.t, q.r, q.p) for q in (params[i] for i in keep)]).T
        lhs_sv, rhs_sv = t_chain_sides(spectra.select(keep), s, t, r, p)
        _, least, scale, _ = chain_margins(norm_values(lhs_sv, specs), None,
                                           norm_values(rhs_sv, specs))
        value = least / scale
        winner[keep], margin[keep] = value.argmin(axis=-1), value.min(axis=-1)
    return gated, margin, [specs[j] if j >= 0 else None for j in winner.tolist()]


def _point_margin(inst: InstanceSet, params: ChainParams, norms, condition_cap):
    """(margin, spec) of one point through `_stack_margins`, a stack of
    one; (None, None) when gated."""
    gated, margin, specs = _stack_margins(np.stack(inst.A)[None], np.stack(inst.B)[None],
                                          [params], norms, condition_cap)
    return (None, None) if gated[0] else (float(margin[0]), specs[0])


def _chunks(cfg: SearchConfig):
    """The samples in order, in chunks of about _CHUNK_ENTRIES matrix
    entries, so that a long hunt holds a bounded working set."""
    chunk, entries = [], 0
    for k in range(cfg.samples):
        n, m, params, seed = _sample_point(cfg, k)
        chunk.append((n, m, params, seed))
        entries += 2 * m * n ** 2
        if entries >= _CHUNK_ENTRIES:
            yield chunk
            chunk, entries = [], 0
    if chunk:
        yield chunk


def _sampling_phase(cfg: SearchConfig):
    """(margin or None when gated, point) for every sample, in sample
    order.  Each chunk's samples are grouped by (n, m); a group's instances
    are generated as one stack and evaluated by one `_stack_margins` call.
    A point is (A, B, row, sample, spec): the sample's instance is row
    `row` of the stacks A and B, and `sample` is from `_sample_point`."""
    for chunk in _chunks(cfg):
        buckets = {}
        for i, (n, m, params, seed) in enumerate(chunk):
            buckets.setdefault((n, m), []).append((i, params, seed))
        results = [None] * len(chunk)
        for (n, m), members in buckets.items():
            draws = [draw_instance("generic", n, m, seed, cfg.spectrum_law) for _, _, seed in members]
            A, B = assemble_instances("generic", np.stack([G for G, _ in draws]),
                                      np.stack([lam for _, lam in draws]))
            gated, margin, specs = _stack_margins(A, B, [params for _, params, _ in members],
                                                  cfg.norms, cfg.condition_cap)
            for row, (i, _, _) in enumerate(members):
                point = (A, B, row, chunk[i], specs[row])
                results[i] = (None if gated[row] else float(margin[row]), point)
        yield from results


def _perturb_matrix(H: np.ndarray, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Multiplicative eigenvalue jitter plus a small basis rotation;
    preserves positive definiteness."""
    eig = hermitian_eig(H)
    n = H.shape[0]
    lam = eig.eigenvalues * np.exp(scale * rng.standard_normal(n))
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, _ = np.linalg.qr(np.eye(n) + scale * G)
    V = eig.vectors @ Q
    return hermitize((V * lam) @ V.conj().T)


def _perturb_point(inst, params, cfg, rng):
    A = [_perturb_matrix(Ai, rng, cfg.refine_scale) for Ai in inst.A]
    B = [_perturb_matrix(Bi, rng, cfg.refine_scale) for Bi in inst.B]
    new_inst = InstanceSet(m=inst.m, n=inst.n, A=A, B=B, seed=inst.seed, kind="generic")

    def jitter(v, lo, hi):
        if hi <= lo:
            return v
        return float(np.clip(v + cfg.refine_scale * (hi - lo) * rng.standard_normal(), lo, hi))

    new_params = ChainParams(
        s=jitter(params.s, *cfg.s_range),
        r=params.r,
        p=params.p,
        t=jitter(params.t, *cfg.t_range),
    )
    return new_inst, new_params


def _argmin_record(inst: InstanceSet, params: ChainParams, spec: NormSpec, margin: float) -> dict:
    return {
        "kind": inst.kind,
        "n": inst.n,
        "m": inst.m,
        "instance_seed": inst.seed,
        "params": params.as_dict(),
        "norm": spec.to_record(),
        "margin": margin,
        "status": t_chain_status(params),
        "A": [_complex_to_lists(Ai) for Ai in inst.A],
        "B": [_complex_to_lists(Bi) for Bi in inst.B],
    }


def evaluate_argmin(result_or_argmin, condition_cap: float = 1e8) -> float | None:
    """Re-evaluate a serialized arg-min point; returns its normalized
    margin, or None when the point is gated under `condition_cap` or the
    result has no arg-min (every sample was gated)."""
    arg = result_or_argmin.argmin if isinstance(result_or_argmin, SearchResult) else result_or_argmin
    if arg is None:
        return None
    inst = InstanceSet(
        m=arg["m"],
        n=arg["n"],
        A=[_lists_to_complex(Ai) for Ai in arg["A"]],
        B=[_lists_to_complex(Bi) for Bi in arg["B"]],
        seed=arg["instance_seed"],
        kind=arg["kind"],
    )
    params = ChainParams(**arg["params"])
    return _point_margin(inst, params, [NormSpec.from_record(arg["norm"])], condition_cap)[0]


def hunt(cfg: SearchConfig) -> SearchResult:
    """Random search plus keep-if-smaller refinement over the configured
    conjecture region."""
    cfg.validate()
    t0 = time.perf_counter()
    best_margin = np.inf
    best_point = None
    gated = 0
    evaluated = 0
    for margin, point in _sampling_phase(cfg):
        if margin is None:
            gated += 1
            continue
        evaluated += 1
        if margin < best_margin:
            best_margin, best_point = margin, point

    if best_point is not None:
        A, B, row, (n, m, params, seed), spec = best_point
        inst = InstanceSet(m=m, n=n, A=A[row], B=B[row], seed=seed, kind="generic")
        for step in range(cfg.refine_steps):
            rng = np.random.default_rng(derive_seed(cfg.base_seed ^ _REFINE_TAG, step))
            cand_inst, cand_params = _perturb_point(inst, params, cfg, rng)
            margin, cand_spec = _point_margin(cand_inst, cand_params, cfg.norms, cfg.condition_cap)
            evaluated += 1 if margin is not None else 0
            gated += 1 if margin is None else 0
            if margin is not None and margin < best_margin:
                best_margin = margin
                inst, params, spec = cand_inst, cand_params, cand_spec
        best_point = (inst, params, spec)

    candidate = False
    recheck = None
    argmin = None
    if best_point is not None:
        inst, params, spec = best_point
        argmin = _argmin_record(inst, params, spec, float(best_margin))
        if best_margin < -cfg.tol_rel:
            # confirm in extended precision before surfacing
            recheck = highprec.t_chain_margin(inst.A, inst.B, params, spec)
            candidate = recheck < -cfg.tol_rel
    return SearchResult(
        min_margin=float(best_margin),
        argmin=argmin,
        samples_evaluated=evaluated,
        gated_count=gated,
        base_seed=cfg.base_seed,
        candidate=candidate,
        recheck_margin=recheck,
        wall_seconds=time.perf_counter() - t0,
    )
