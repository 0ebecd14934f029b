"""Parameter sweeps: evaluate configured chains over seeded instances and
parameter grids, with deterministic per-task seeds and records sorted by
key, so a report is a pure function of its config.

The tasks of one n are taken together, whatever their m: each (n, m)'s
instances of a kind are drawn from their task seeds as one stack
(`generate.draw_instances`) into the n-group's stack of that kind, every
m's pairs laid end to end (`chains.InstanceSpectra`).  A chain is one
row of the chain table, which gives its kind and grid (`chains.chain_grids`);
its whole grid is evaluated once per n on its kind's stack by one
`chains.grid_terms` call, then split by m
(`ChainTerms.take`, which cuts Z's zeros to each m) and recorded with
one `reports.chain_block` call per (n, m), one grid block each.  An
m-free lemma id's cases (`lemmas.m_free`) are drawn, evaluated and
recorded as one stack per n, and the other ids' as one stack per (n, m),
one `reports.lemma_block` each.  A sweep builds no record dict:
`build_report_set` orders the rows of every block by one lexsort and
summarizes them in one numpy pass, and the writer and
`reports.has_proven_failure` read the blocks' arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import errors
from .chains import (CHAIN_NAMES, DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL, InstanceSpectra,
                     chain_grids, expand_norm_tokens, grid_terms, validate_run_fields)
from .generate import DEFAULT_LAW, SpectrumLaw, derive_seed, draw_instances
from .lemmas import LEMMA_IDS, lemma_stack_terms, m_free, random_cases
from .reports import ReportSet, build_report_set, chain_block, lemma_block

KNOWN_CHAINS = (*CHAIN_NAMES, "lemmas")
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
        if not self.chains:  # the sweep would write a report with no record
            raise errors.ConfigError(f"chains must list at least one chain; known: {KNOWN_CHAINS}")
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
        for i, lid in enumerate(self.lemma_ids):
            if lid not in LEMMA_IDS:
                raise errors.ConfigError(f"unknown lemma id {lid!r}")
            if lid in self.lemma_ids[:i]:  # its second copy would write the same blocks twice
                raise errors.ConfigError(f"lemma_ids lists {lid!r} twice")
        for cid, (_, needs, grid, chain) in _chain_table(self).items():
            if chain in self.chains and not grid:
                raise errors.ConfigError(
                    f"chain {cid!r} has no point to evaluate: it needs some {needs}")
        return self

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
    """Id -> (instance kind, hypothesis, grid, configured chain) of every
    chain id, read from its row (`chains.chain_grids`), its kind None
    replaced by the configured generator; and of "lemmas", whose grid is
    the lemma ids."""
    values = {field: getattr(cfg, f"{field}_values") for field in "srpt"}
    table = {cid: (kind or cfg.generator, needs, grid, chain) for chain in CHAIN_NAMES
             for cid, (kind, needs, grid) in chain_grids(chain, values).items()}
    table["lemmas"] = (None, "lemma id", list(cfg.lemma_ids), "lemmas")
    return table


def _group_blocks(cfg: SweepConfig, table: dict, n: int, shapes: list) -> list:
    """The record blocks of every shape (n, m) of one n, `shapes` a list
    of (m, tasks): task i draws its instance of each kind from seed
    derive_seed(base_seed, i), and its case of lemma id LEMMA_IDS[li] from
    seed derive_seed(derive_seed(base_seed, i), li), as `generate_instance`
    and `random_case` would, whichever other ids the config lists.  Each
    shape's instances of a kind are drawn as one stack, and each chain id
    is evaluated by one `grid_terms` call on the n-group, every shape's
    pairs of its kind laid end to end (`InstanceSpectra`), then split by
    shape (`ChainTerms.take`) and recorded by one `chain_block` call per
    shape.  An m-free lemma id's
    cases are drawn, evaluated and recorded as one stack of every task of
    the n-group, each recorded with its task's m, and another id's as one
    stack per shape."""
    seeds = [derive_seed(cfg.base_seed, np.array(tasks, np.uint64)) for _, tasks in shapes]
    tasks = np.concatenate(seeds)
    K, bounds = len(tasks), np.cumsum([0] + [len(part) for part in seeds]).tolist()
    rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    ms = np.repeat([m for m, _ in shapes], np.diff(bounds)).tolist()  # each task's m
    ids = [cid for c in cfg.chains if c != "lemmas" for cid, row in table.items() if row[3] == c]
    spectra = {}
    for kind in dict.fromkeys(table[cid][0] for cid in ids):
        draws = [draw_instances(kind, n, m, tasks[part], cfg.spectrum_law)
                 for (m, _), part in zip(shapes, rows)]
        A, B = (np.concatenate([X.reshape(-1, n, n) for X in part]) for part in zip(*draws))
        spectra[kind] = InstanceSpectra(A, B, ms)
    blocks = []
    for cid in ids:
        kind, _, grid, _ = table[cid]
        terms = grid_terms(spectra[kind], cid, grid)
        for (m, _), part in zip(shapes, rows):
            shape_terms = terms.take(part, m * n)
            blocks.append(chain_block(shape_terms, n, m, tasks[part].tolist(), grid,
                                      expand_norm_tokens(cfg.norms, shape_terms.max_dim),
                                      cfg.tol_rel, cfg.condition_cap))
    for lid in table["lemmas"][2] if "lemmas" in cfg.chains else []:
        case_seeds = derive_seed(tasks, LEMMA_IDS.index(lid))
        for part in [slice(0, K)] if m_free(lid) else rows:
            cases = random_cases(lid, case_seeds[part], n, ms[part][0], cfg.spectrum_law)
            terms = lemma_stack_terms(cases)
            blocks.append(lemma_block(cases, terms, case_seeds[part].tolist(), n, ms[part],
                                      expand_norm_tokens(cfg.norms, terms.max_dim),
                                      cfg.tol_rel))
    return blocks


def run_sweep(cfg: SweepConfig, workers: int = 1) -> ReportSet:
    """Evaluate every configured chain at every (instance, params, norm)
    point.  Output is deterministic given the config.

    The j-th of P shapes (n, m) takes the tasks range(j, instance_count,
    P), and the shapes of each n run together (`_group_blocks`); a
    task's records depend neither on how many tasks share its shape nor
    on which shapes share its n, nor on which other chains or lemma ids
    the config lists.  `workers` is accepted for existing callers and does
    not change the work done or the output: a thread pool ran slower than
    this loop, because the evaluation is many small numpy calls and the
    Python between them holds the interpreter lock."""
    cfg.validate()
    table = _chain_table(cfg)
    pairs = [(n, m) for n in cfg.n_values for m in cfg.m_values]
    groups = {}
    for j, (n, m) in enumerate(pairs[:cfg.instance_count]):
        groups.setdefault(n, []).append((m, range(j, cfg.instance_count, len(pairs))))
    blocks = []
    for n, shapes in groups.items():
        blocks.extend(_group_blocks(cfg, table, n, shapes))
    return build_report_set(blocks)

