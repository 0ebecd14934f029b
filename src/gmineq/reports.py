"""Report records and deterministic serialization.

Report files are newline-delimited JSON: one self-describing record per
line, each carrying schema_version, with a trailing summary record.
Floats are written with 17 significant digits, so read(write(x)) == x and
re-serialization is byte-identical.  Search results are a single JSON
object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from . import errors
from .blocks import InstanceSet
from .chains import DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL, ChainParams, ChainTerms, chain_margins
from .lemmas import LemmaCase, lemma_margins
from .norms import norm_values

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(x, ".17g")
    if not any(c in s for c in ".e"):
        s += ".0"
    return s


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict key order is preserved as built (records are built with a fixed
    field order), so identical objects serialize to identical bytes.
    Strings are quoted by the function `json.dumps(str)` calls.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_quote(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# record building
# ---------------------------------------------------------------------------

def chain_records(
    terms: ChainTerms,
    inst: InstanceSet,
    params: ChainParams,
    norms: list,
    tol_rel: float = DEFAULT_TOL_REL,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> list:
    """One record per norm of `norms` on one chain's precomputed terms: one
    `norm_values` call per term, margins and pass flags from
    `chains.chain_margins`.  The records share the fields that do not
    depend on the norm, `params` included."""
    lhs, rhs = norm_values(terms.lhs_sv, norms), norm_values(terms.rhs_sv, norms)
    mid = None if terms.mid_sv is None else norm_values(terms.mid_sv, norms)
    margins, _, _, passed = chain_margins(lhs, mid, rhs, tol_rel)
    head = {"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": terms.chain_id,
            "instance_seed": inst.seed, "n": inst.n, "m": inst.m,
            "params": {k: float(v) for k, v in params.as_dict().items()}}
    cond = terms.condition_max
    tail = {"gated": bool(cond > condition_cap), "status": terms.status,
            "condition_max": "inf" if math.isinf(cond) else float(cond)}
    mids = [None] * len(norms) if mid is None else mid.tolist()
    rows = zip(norms, lhs.tolist(), mids, rhs.tolist(), zip(*(v.tolist() for v in margins)),
               passed.tolist())
    return [{**head, "norm": norm.to_record(), "lhs": lo, "mid": mi, "rhs": hi,
             "margins": list(mg), "pass": ok, **tail} for norm, lo, mi, hi, mg, ok in rows]


def lemma_records(case: LemmaCase, terms, instance_seed: int, n: int, m: int, norms: list,
                  tol_rel: float = DEFAULT_TOL_REL) -> list:
    """One record per norm of `norms` on one lemma case's precomputed
    terms, under `lemmas.lemma_margins`; `n` and `m` are the sizes the case
    was drawn at.  The records share `params`."""
    lhs, rhs, margin, passed = lemma_margins(terms, norms, tol_rel)
    head = {"schema_version": SCHEMA_VERSION, "kind": "lemma", "lemma_id": case.lemma_id,
            "instance_seed": instance_seed, "n": n, "m": m,
            "params": {k: float(v) for k, v in sorted(case.params.items())}}
    rows = zip(norms, lhs.tolist(), rhs.tolist(), margin.tolist(), passed.tolist())
    return [{**head, "norm": norm.to_record(), "lhs": lo, "rhs": hi, "margins": [mg],
             "pass": ok, "gated": False, "status": "proven"} for norm, lo, hi, mg, ok in rows]


def record_sort_key(rec: dict):
    return (
        rec.get("chain_id") or rec.get("lemma_id") or "",
        rec["instance_seed"],
        tuple(sorted(rec.get("params", {}).items())),
        _norm_sort_key(rec.get("norm", {})),
    )


def _norm_sort_key(norm: dict):
    p = norm.get("p")
    if p == "inf":
        p = math.inf
    return (norm.get("variant", ""), norm.get("k") or 0, p or 0.0)


# ---------------------------------------------------------------------------
# report sets
# ---------------------------------------------------------------------------

@dataclass
class ReportSet:
    """Ordered records plus a per-(chain, norm class) summary."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _norm_class(norm: dict) -> str:
    v = norm.get("variant", "")
    if v == "kyfan":
        return "kyfan"
    if v == "schatten":
        return f"schatten:{norm['p']}" if norm["p"] != "inf" else "schatten:inf"
    return v


def summarize(records: list) -> dict:
    """Per-(chain, norm class) minimum margin and pass/gated counts."""
    groups: dict = {}
    candidates = 0
    for rec in records:
        cid = rec.get("chain_id") or rec.get("lemma_id")
        key = (cid, _norm_class(rec.get("norm", {})))
        g = groups.setdefault(key, {"min_margin": None, "pass": 0, "fail": 0, "gated": 0})
        if rec.get("gated"):
            g["gated"] += 1
            continue
        mm = min(rec["margins"])
        if g["min_margin"] is None or mm < g["min_margin"]:
            g["min_margin"] = mm
        if rec["pass"]:
            g["pass"] += 1
        else:
            g["fail"] += 1
            if rec.get("status") == "conjectured":
                candidates += 1
    rows = [
        {
            "chain": cid,
            "norm_class": nc,
            "min_margin": g["min_margin"],
            "pass_count": g["pass"],
            "fail_count": g["fail"],
            "gated_count": g["gated"],
        }
        for (cid, nc), g in sorted(groups.items())
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "summary",
        "total_records": len(records),
        "candidates": candidates,
        "groups": rows,
    }


def build_report_set(records: list) -> ReportSet:
    records = sorted(records, key=record_sort_key)
    return ReportSet(records=records, summary=summarize(records))


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def write_reports(obj, path) -> None:
    """Write a ReportSet (JSONL) or SearchResult (single JSON object)."""
    if isinstance(obj, ReportSet):
        lines = [dumps(rec) for rec in obj.records]
        lines.append(dumps(obj.summary))
        text = "\n".join(lines) + "\n"
    elif hasattr(obj, "to_record"):
        text = dumps(obj.to_record()) + "\n"
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_version(rec: dict, path) -> None:
    v = rec.get("schema_version")
    if v != SCHEMA_VERSION:
        raise errors.SchemaVersionMismatch(f"{path}: schema_version {v!r}, expected {SCHEMA_VERSION}")


def read_reports(path):
    """Read back a report file; returns ReportSet or SearchResult."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        return ReportSet(records=[], summary=summarize([]))
    first = json.loads(lines[0])
    _check_version(first, path)
    if first.get("kind") == "search_result":
        from .hunt import SearchResult  # local import avoids a cycle
        return SearchResult.from_record(first)
    records = []
    summary = summarize([])
    for ln in lines:
        rec = json.loads(ln)
        _check_version(rec, path)
        if rec.get("kind") == "summary":
            summary = rec
        else:
            records.append(rec)
    return ReportSet(records=records, summary=summary)
