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

from . import errors
from .chains import ChainReport
from .lemmas import LemmaReport

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
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# record building
# ---------------------------------------------------------------------------

def _finite(x: float):
    return "inf" if math.isinf(x) else float(x)


def chain_record(report: ChainReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "chain_id": report.chain_id,
        "instance_seed": report.instance_seed,
        "n": report.n,
        "m": report.m,
        "params": {k: float(v) for k, v in report.params.as_dict().items()},
        "norm": report.norm.to_record(),
        "lhs": float(report.lhs),
        "mid": None if report.mid is None else float(report.mid),
        "rhs": float(report.rhs),
        "margins": [float(v) for v in report.margins],
        "pass": report.passed,
        "gated": report.gated,
        "status": report.status,
        "condition_max": _finite(report.condition_max),
    }


def lemma_record(report: LemmaReport, instance_seed: int, n: int, m: int, params: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "lemma",
        "lemma_id": report.lemma_id,
        "instance_seed": instance_seed,
        "n": n,
        "m": m,
        "params": {k: float(v) for k, v in sorted(params.items())},
        "norm": report.norm.to_record(),
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "margins": [float(report.margin)],
        "pass": report.passed,
        "gated": False,
        "status": "proven",
    }


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

    def __eq__(self, other):
        return (
            isinstance(other, ReportSet)
            and self.records == other.records
            and self.summary == other.summary
        )


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
