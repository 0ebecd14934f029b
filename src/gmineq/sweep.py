"""Parameter sweeps: evaluate configured chains over seeded instances and
parameter grids, with deterministic per-task seeds and blocks sorted by
key, so a report is a pure function of its config.

The tasks of one (n, m) are taken together: every stream they draw from
is made by one `generators` call, their instances are drawn as one stack
per instance kind, each grid chain's whole (s, r, p, t) grid
is evaluated on the stack at once (`chains.grid_terms`) and recorded with
one `reports.chain_blocks` call, each commuting variant likewise, and
each lemma id's cases are one stack.  Each term set is one
`reports.Block`, and a sweep builds no record dict: `build_report_set`,
the summary, the writer and `has_proven_failure` read the blocks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import errors
from .chains import (DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL, ChainParams, admissible,
                     commuting_terms, expand_norm_tokens, grid_terms, validate_run_fields)
from .blocks import InstanceSet
from .generate import DEFAULT_LAW, SpectrumLaw, derive_seed, draw_instances, generators
from .lemmas import LEMMA_IDS, lemma_stack_terms, random_cases
from .reports import Block, ReportSet, build_report_set, chain_blocks, lemma_blocks

KNOWN_CHAINS = ("main", "geo-z", "t-chain", "commuting", "lemmas")
# The parameters recorded for the commuting chains, which take none.
_UNIT = ChainParams(s=1.0, r=1.0, p=1.0)
LIST_FIELDS = ("chains", "n_values", "m_values", "s_values", "r_values", "p_values",
               "t_values", "norms", "lemma_ids")


@dataclass
class SweepConfig:
    chains: list = field(default_factory=lambda: ["main"])
    n_values: list = field(default_factory=lambda: [2])
    m_values: list = field(default_factory=lambda: [2])
    instance_count: int = 10
    base_seed: int = 0
    generator: str = "generic"
    spectrum_law: SpectrumLaw = DEFAULT_LAW
    s_values: list = field(default_factory=lambda: [2.0])
    r_values: list = field(default_factory=lambda: [1.0])
    p_values: list = field(default_factory=lambda: [1.0])
    t_values: list = field(default_factory=lambda: [0.5])
    norms: list = field(default_factory=lambda: ["kyfan:all"])
    tol_rel: float = DEFAULT_TOL_REL
    condition_cap: float = DEFAULT_CONDITION_CAP
    lemma_ids: list = field(default_factory=lambda: list(LEMMA_IDS))

    def validate(self) -> "SweepConfig":
        for name in LIST_FIELDS:
            if not isinstance(getattr(self, name), list):
                raise errors.ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        errors.require_all(numbers.Integral, [*self.n_values, *self.m_values, self.instance_count],
                           "n_values, m_values and instance_count must be integers")
        errors.require_all(numbers.Real, [*self.s_values, *self.r_values, *self.p_values,
                                          *self.t_values], "s, r, p and t values must be numbers")
        for name in ("s_values", "r_values", "p_values", "t_values"):
            values = getattr(self, name)
            errors.require_finite(name, values)
            twice = [v for i, v in enumerate(values) if v in values[:i]]
            if twice:  # the grid would evaluate and write that point twice
                raise errors.ConfigError(f"{name} lists {twice[0]!r} twice")
        validate_run_fields(self)
        # kyfan:all overlaps a listed kyfan:k once expanded to the largest such k
        dim = max([1] + [q.k for q in expand_norm_tokens(self.norms, 1) if q.variant == "kyfan"])
        seen = set()
        for tok in self.norms:
            specs = set(expand_norm_tokens([tok], dim))
            if specs & seen:  # each record of that norm would be written twice
                raise errors.ConfigError(f"norm {tok!r} is listed twice")
            seen |= specs
        for i, c in enumerate(self.chains):
            if c not in KNOWN_CHAINS:
                raise errors.ConfigError(f"unknown chain {c!r}; known: {KNOWN_CHAINS}")
            if c in self.chains[:i]:
                raise errors.ConfigError(f"chain {c!r} is listed twice")
        if self.generator not in ("generic", "commuting"):
            raise errors.ConfigError(f"unknown generator {self.generator!r}")
        if self.instance_count < 0:
            raise errors.ConfigError("instance_count must be >= 0")
        if not self.n_values or not self.m_values:
            raise errors.ConfigError("n_values and m_values must be nonempty")
        if any(n < 1 for n in self.n_values) or any(m < 1 for m in self.m_values):
            raise errors.ConfigError("n and m values must be >= 1")
        for lid in self.lemma_ids:
            if lid not in LEMMA_IDS:
                raise errors.ConfigError(f"unknown lemma id {lid!r}")
        table = _chain_table(self)
        for c in self.chains:
            _, needs, grid = table[c]
            if not grid:
                raise errors.ConfigError(f"chain {c!r} has no point to evaluate: it needs {needs}")
        return self

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["spectrum_law"] = self.spectrum_law.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise errors.ConfigError(f"a sweep config must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise errors.ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        law = d.get("spectrum_law")
        if isinstance(law, dict):
            errors.require_all(numbers.Real, [law.get("lo"), law.get("hi")],
                               f"spectrum_law needs numbers lo and hi, got {law!r}")
            d["spectrum_law"] = SpectrumLaw.from_dict(law)
        return cls(**d).validate()


def _chain_table(cfg: SweepConfig) -> dict:
    """Chain id -> (instance kind, hypothesis, grid).  A grid chain's grid
    holds the ChainParams built from the configured values that satisfy
    its hypothesis (`chains.admissible`), in config order; the commuting
    grid holds variants and the lemmas grid ids."""
    s_, r_, p_, t_ = cfg.s_values, cfg.r_values, cfg.p_values, cfg.t_values
    products = {
        "main": [ChainParams(s=s, r=r, p=p) for s in s_ for r in r_ for p in p_],
        "geo-z": [ChainParams(s=s, r=1.0, p=1.0) for s in s_],
        "t-chain": [ChainParams(s=s, r=r, p=p, t=t) for s in s_ for r in r_ for p in p_
                    for t in t_],
    }
    table = {}
    for chain, points in products.items():
        grid, needs = admissible(chain, points)
        table[chain] = (cfg.generator, f"some {needs}", grid)
    table["commuting"] = ("commuting", "nothing", ["product", "symmetrized"])
    table["lemmas"] = (None, "some lemma id", list(cfg.lemma_ids))
    return table


def _shape_blocks(cfg: SweepConfig, table: dict, tasks: range, n: int, m: int) -> list:
    """The record blocks of the tasks `tasks`, all of shape (n, m): task i
    draws its instance of each kind from seed derive_seed(base_seed, i) as
    `generate_instance` would, and its case of lemma id number li from seed
    derive_seed(derive_seed(base_seed, i), li) as `random_case` would, all
    from streams made by one `generators` call.  Each kind's instances are
    one stack, and each chain (commuting variant) is evaluated on it by one
    terms call and recorded by one `chain_blocks` call; each lemma id's
    cases are drawn, evaluated and recorded as one stack."""
    seeds = derive_seed(cfg.base_seed, np.array(tasks, np.uint64))
    K = len(seeds)  # a lone task gets no stack axis, which every array op would carry
    stack, lead = (tuple(seeds.tolist()), (K,)) if K > 1 else (int(seeds[0]), ())
    chains = [c for c in cfg.chains if c != "lemmas"]
    kinds = list(dict.fromkeys(table[c][0] for c in chains))
    lemma_ids = table["lemmas"][2] if "lemmas" in cfg.chains else []
    groups = [seeds] * len(kinds) + [derive_seed(seeds, li) for li in range(len(lemma_ids))]
    streams = generators(np.concatenate([seeds[:0], *groups]))  # K fresh streams per group
    instances = {}
    for j, kind in enumerate(kinds):
        A, B = (X.reshape(lead + X.shape[1:]) for X in
                draw_instances(kind, n, m, streams[j * K:(j + 1) * K], cfg.spectrum_law))
        instances[kind] = InstanceSet(m, n, A, B, stack, kind)
    blocks = []
    for chain in chains:
        kind, _, grid = table[chain]
        inst = instances[kind]
        evaluations = ([(commuting_terms(inst, variant), [_UNIT]) for variant in grid]
                       if chain == "commuting" else [(grid_terms(inst, chain, grid), grid)])
        for terms, points in evaluations:
            blocks.extend(chain_blocks(terms, inst, points,
                                       expand_norm_tokens(cfg.norms, terms.max_dim),
                                       cfg.tol_rel, cfg.condition_cap))
    for j, lid in enumerate(lemma_ids, start=len(kinds)):
        cases = random_cases(lid, streams[j * K:(j + 1) * K], n, m, cfg.spectrum_law)
        terms = lemma_stack_terms(cases)
        blocks.extend(lemma_blocks(cases, terms, groups[j].tolist(), n, m,
                                   expand_norm_tokens(cfg.norms, terms.max_dim), cfg.tol_rel))
    return blocks


def run_sweep(cfg: SweepConfig, workers: int = 1) -> ReportSet:
    """Evaluate every configured chain at every (instance, params, norm)
    point.  Output is deterministic given the config.

    The tasks of the j-th of P shapes, range(j, instance_count, P), run
    together (`_shape_blocks`), and a task's records do not depend on how
    many share its shape.  `workers` is accepted for existing callers and
    does not change the work done or the output: a thread pool ran slower
    than this loop, because the evaluation is many small numpy calls and
    the Python between them holds the interpreter lock."""
    cfg.validate()
    table = _chain_table(cfg)
    pairs = [(n, m) for n in cfg.n_values for m in cfg.m_values]
    blocks = []
    for j, (n, m) in enumerate(pairs[:cfg.instance_count]):
        blocks.extend(_shape_blocks(cfg, table, range(j, cfg.instance_count, len(pairs)), n, m))
    return build_report_set(blocks)


def has_proven_failure(rs: ReportSet) -> bool:
    """True if any non-gated proven-regime record failed its tolerance, read
    from each block's tail and pass column (a record dict is a block of one)."""
    for item in rs.blocks:
        passes, tail = ((item.columns["pass"], item.tail) if isinstance(item, Block)
                        else ([item["pass"]], item))
        if not tail["gated"] and tail.get("status") == "proven" and not all(passes):
            return True
    return False
