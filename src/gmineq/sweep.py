"""Parameter sweeps: evaluate configured chains over seeded instances and
parameter grids, with deterministic per-task seeds and a sorted merge, so
serial and concurrent runs produce identical reports.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

from . import errors
from .chains import (
    ChainParams,
    commuting_terms,
    expand_norm_tokens,
    geo_z_terms,
    main_chain_terms,
    report_from_terms,
    t_chain_terms,
)
from .generate import DEFAULT_LAW, SpectrumLaw, derive_seed, generate_instance
from .lemmas import LEMMA_IDS, lemma_report_from_terms, lemma_terms, random_case
from .reports import ReportSet, build_report_set, chain_record, lemma_record

KNOWN_CHAINS = ("main", "geo-z", "t-chain", "commuting", "lemmas")
LIST_FIELDS = ("chains", "n_values", "m_values", "s_values", "r_values", "p_values",
               "t_values", "norms", "lemma_ids")


def _all_of(kind, values) -> bool:
    return all(isinstance(v, kind) and not isinstance(v, bool) for v in values)


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
    tol_rel: float = 1e-8
    condition_cap: float = 1e8
    lemma_ids: list = field(default_factory=lambda: list(LEMMA_IDS))

    def validate(self) -> "SweepConfig":
        for name in LIST_FIELDS:
            if not isinstance(getattr(self, name), list):
                raise errors.ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not _all_of(numbers.Integral, [*self.n_values, *self.m_values, self.instance_count]):
            raise errors.ConfigError("n_values, m_values and instance_count must be integers")
        if not _all_of(numbers.Real, [*self.s_values, *self.r_values, *self.p_values,
                                      *self.t_values]):
            raise errors.ConfigError("s, r, p and t values must be numbers")
        for c in self.chains:
            if c not in KNOWN_CHAINS:
                raise errors.ConfigError(f"unknown chain {c!r}; known: {KNOWN_CHAINS}")
        if self.generator not in ("generic", "commuting"):
            raise errors.ConfigError(f"unknown generator {self.generator!r}")
        if self.instance_count < 0:
            raise errors.ConfigError("instance_count must be >= 0")
        if not self.n_values or not self.m_values:
            raise errors.ConfigError("n_values and m_values must be nonempty")
        if any(n < 1 for n in self.n_values) or any(m < 1 for m in self.m_values):
            raise errors.ConfigError("n and m values must be >= 1")
        if self.condition_cap <= 1.0:
            raise errors.ConfigError("condition_cap must be > 1")
        for lid in self.lemma_ids:
            if lid not in LEMMA_IDS:
                raise errors.ConfigError(f"unknown lemma id {lid!r}")
        return self

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["spectrum_law"] = self.spectrum_law.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise errors.ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        if "spectrum_law" in d and not isinstance(d["spectrum_law"], SpectrumLaw):
            d["spectrum_law"] = SpectrumLaw.from_dict(d["spectrum_law"])
        return cls(**d).validate()


def _main_grid(cfg):
    return [
        ChainParams(s=s, r=r, p=p)
        for s in cfg.s_values if s >= 2.0
        for r in cfg.r_values if r >= 1.0
        for p in cfg.p_values if p > 0.0 and r * p >= 1.0
    ]


def _t_grid(cfg):
    return [
        ChainParams(s=s, r=r, p=p, t=t)
        for s in cfg.s_values if s > 0.0
        for r in cfg.r_values if r > 0.0
        for p in cfg.p_values if p > 0.0
        for t in cfg.t_values if 0.0 <= t <= 1.0
    ]


def _task_records(cfg: SweepConfig, task_index: int, n: int, m: int) -> list:
    seed = derive_seed(cfg.base_seed, task_index)
    records = []
    inst = None

    def instance(kind):
        nonlocal inst
        if inst is None or inst.kind != kind:
            inst = generate_instance(kind, n, m, seed, cfg.spectrum_law)
        return inst

    for chain in cfg.chains:
        if chain == "main":
            for params in _main_grid(cfg):
                terms = main_chain_terms(instance(cfg.generator), params)
                for spec in expand_norm_tokens(cfg.norms, terms.max_dim):
                    records.append(chain_record(report_from_terms(
                        terms, inst, params, spec, cfg.tol_rel, cfg.condition_cap)))
        elif chain == "geo-z":
            for s in cfg.s_values:
                if s < 1.0:
                    continue
                params = ChainParams(s=s, r=1.0, p=1.0)
                terms = geo_z_terms(instance(cfg.generator), s)
                for spec in expand_norm_tokens(cfg.norms, terms.max_dim):
                    records.append(chain_record(report_from_terms(
                        terms, inst, params, spec, cfg.tol_rel, cfg.condition_cap)))
        elif chain == "t-chain":
            for params in _t_grid(cfg):
                terms = t_chain_terms(instance(cfg.generator), params)
                for spec in expand_norm_tokens(cfg.norms, terms.max_dim):
                    records.append(chain_record(report_from_terms(
                        terms, inst, params, spec, cfg.tol_rel, cfg.condition_cap)))
        elif chain == "commuting":
            for variant in ("product", "symmetrized"):
                terms = commuting_terms(instance("commuting"), variant)
                params = ChainParams(s=1.0, r=1.0, p=1.0)
                for spec in expand_norm_tokens(cfg.norms, terms.max_dim):
                    records.append(chain_record(report_from_terms(
                        terms, inst, params, spec, cfg.tol_rel, cfg.condition_cap)))
        elif chain == "lemmas":
            for li, lid in enumerate(cfg.lemma_ids):
                case_seed = derive_seed(seed, li)
                case = random_case(lid, case_seed, n=n, m=m, law=cfg.spectrum_law)
                terms = lemma_terms(case)
                max_dim = max(terms.lhs_sv.size,
                              terms.rhs_sv.size if terms.rhs_sv is not None else 0)
                for spec in expand_norm_tokens(cfg.norms, max_dim):
                    rep = lemma_report_from_terms(lid, terms, spec, cfg.tol_rel)
                    records.append(lemma_record(rep, case_seed, n, m, case.params))
    return records


def run_sweep(cfg: SweepConfig, workers: int = 1) -> ReportSet:
    """Evaluate every configured chain at every (instance, params, norm)
    point.  Output is deterministic given the config, independent of
    worker count."""
    cfg.validate()
    pairs = [(n, m) for n in cfg.n_values for m in cfg.m_values]
    tasks = [(i, *pairs[i % len(pairs)]) for i in range(cfg.instance_count)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda t: _task_records(cfg, *t), tasks))
    else:
        chunks = [_task_records(cfg, *t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    return build_report_set(records)


def has_proven_failure(rs: ReportSet) -> bool:
    """True if any non-gated proven-regime record failed its tolerance."""
    return any(
        not rec["pass"] and not rec["gated"] and rec.get("status") == "proven"
        for rec in rs.records
    )
