"""Report records and deterministic serialization.

Report files are newline-delimited JSON: one self-describing record per
line, each carrying schema_version, with a trailing summary record.
Floats are written with 17 significant digits, so read(write(x)) == x and
re-serialization is byte-identical.  Search results are a single JSON
object.

`chain_blocks` (`lemma_blocks`) builds one block of records per point of a
parameter grid (per case of a stack of lemma cases) from stacked terms,
with one `norm_values` call per side; `chain_records` (`lemma_records`) is
its one-point form.  These builders put a term set's records in report
order (`order_norms`), so `build_report_set` orders a report by sorting
term-set blocks by (chain, seed, params) and stable-merging blocks with
equal keys by norm, which equals sorting every record by `record_sort_key`.

`_encode` is the one function that picks a value's JSON by its type; its
memo formats each repeated key and float once (`dumps` has the rules).
`write_reports` encodes a file's records and summary into one list of
parts, with one memo, and joins it once; `read_reports` decodes all of a
file's lines with one `json.loads` call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from . import errors
from .blocks import InstanceSet
from .chains import DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL, ChainParams, ChainTerms, chain_margins
from .lemmas import LemmaCase, lemma_margins
from .norms import norm_values

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict key order is preserved as built (records are built with a fixed
    field order), so identical objects serialize to identical bytes.
    Strings are quoted by the function `json.dumps(str)` calls, integers
    written by `str`, infinities as the strings "inf" and "-inf"; NaN
    raises `ValueError` and a value of any other type `TypeError`.

    `_encode` writes the value in one pass, and a memo kept for one call
    (`write_reports` shares one across a file) holds the quoted `"key":`
    prefix of each `str` key and the text of each non-zero float, so a
    report's repeated keys and values (its parameters, condition numbers
    and terms shared by grid points) are formatted once.  A key of any
    other type is written as `str(k)` every time, so keys that compare
    equal but print differently (`1`, `True`, `1.0`) never share a prefix;
    no zero is remembered, since 0.0 and -0.0 compare equal.
    """
    parts: list = []
    _encode(obj, parts, {})
    return "".join(parts)


# A memo maps each exact-str key to its quoted `"key":` prefix and each
# non-zero float to its text (no str equals a float, so the two never
# meet).  It is emptied at this many entries, so that it stays small on a
# file of unique values.
_MEMO_MAX = 4096


def _remember(memo: dict, value, text: str) -> str:
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    memo[value] = text
    return text


def _float_text(v: float, memo: dict) -> str:
    """The text of a float not in `memo`; remembered unless it is zero
    (0.0 and -0.0 compare equal but print differently).  A 17-digit form
    with a "." or an "e" is finite and final; an integral one gains ".0",
    infinities are quoted and NaN raises."""
    s = format(v, ".17g")
    if "." not in s and "e" not in s:
        if math.isnan(v):
            raise ValueError("cannot serialize NaN")
        if math.isinf(v):
            s = '"inf"' if v > 0 else '"-inf"'
        else:
            s += ".0"
    return _remember(memo, v, s) if v else s


def _encode(v, parts: list, memo: dict) -> None:
    """Append the JSON of any value to `parts`: exact types first, then
    `isinstance` for subclasses (a dict or list subclass is copied to its
    base type) and for the types that raise."""
    t = type(v)
    if t is float:
        parts.append(memo.get(v) or _float_text(v, memo))
    elif t is str:
        parts.append(_quote(v))
    elif t is int:
        parts.append(str(v))
    elif t is dict:
        sep = "{"
        for k, x in v.items():
            parts.append(sep)
            sep = ","
            if type(k) is str:
                parts.append(memo.get(k) or _remember(memo, k, _quote(k) + ":"))
            else:
                parts.append(_quote(str(k)) + ":")
            _encode(x, parts, memo)
        parts.append("}" if sep == "," else "{}")
    elif t is list or t is tuple:
        sep = "["
        for x in v:
            parts.append(sep)
            sep = ","
            _encode(x, parts, memo)
        parts.append("]" if sep == "," else "[]")
    elif v is None:
        parts.append("null")
    elif v is True:
        parts.append("true")
    elif v is False:
        parts.append("false")
    elif isinstance(v, float):
        parts.append(memo.get(v) or _float_text(v, memo))
    elif isinstance(v, str):
        parts.append(_quote(v))
    elif isinstance(v, int):
        parts.append(str(v))
    elif isinstance(v, dict):
        _encode(dict(v), parts, memo)
    elif isinstance(v, (list, tuple)):
        _encode(list(v), parts, memo)
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


# ---------------------------------------------------------------------------
# record building
# ---------------------------------------------------------------------------

def chain_blocks(
    terms: ChainTerms,
    inst: InstanceSet,
    points: list,
    norms: list,
    tol_rel: float = DEFAULT_TOL_REL,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> list:
    """One block of records per parameter point of a grid's stacked terms
    (`chains.grid_terms`; row k belongs to `points[k]`), each block one
    record per norm of `norms`, in report order (`order_norms`): one
    `norm_values` call per term for the whole grid, margins and pass flags
    from `chains.chain_margins`.  A block's records share its `params` dict
    and every block shares the norm dicts."""
    norms = order_norms(norms)

    def values(sv):
        return norm_values(np.reshape(sv, (-1, np.shape(sv)[-1])), norms)

    lhs, rhs = values(terms.lhs_sv), values(terms.rhs_sv)
    mid = None if terms.mid_sv is None else values(terms.mid_sv)
    margins, _, _, passed = chain_margins(lhs, mid, rhs, tol_rel)
    cid, seed, n, m = terms.chain_id, inst.seed, inst.n, inst.m
    statuses = [terms.status] * len(points) if isinstance(terms.status, str) else terms.status
    cond = terms.condition_max
    gated, cond = bool(cond > condition_cap), "inf" if math.isinf(cond) else float(cond)
    norm_dicts = [norm.to_record() for norm in norms]
    mids = [[None] * len(norms)] * len(points) if mid is None else mid.tolist()
    rows = zip(points, statuses, lhs.tolist(), mids, rhs.tolist(),
               np.stack(margins, axis=-1).tolist(), passed.tolist())
    blocks = []
    for q, status, los, mis, his, mgs, oks in rows:
        params = {k: float(v) for k, v in q.as_dict().items()}
        blocks.append([{"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": cid,
                        "instance_seed": seed, "n": n, "m": m, "params": params, "norm": norm,
                        "lhs": lo, "mid": mi, "rhs": hi, "margins": mg, "pass": ok,
                        "gated": gated, "status": status, "condition_max": cond}
                       for norm, lo, mi, hi, mg, ok in zip(norm_dicts, los, mis, his, mgs, oks)])
    return blocks


def chain_records(
    terms: ChainTerms,
    inst: InstanceSet,
    params: ChainParams,
    norms: list,
    tol_rel: float = DEFAULT_TOL_REL,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> list:
    """One record per norm of `norms`, in report order, on one chain's
    precomputed terms at one point: `chain_blocks` on a grid of one."""
    return chain_blocks(terms, inst, [params], norms, tol_rel, condition_cap)[0]


def lemma_blocks(case: LemmaCase, terms, instance_seeds: list, n: int, m: int, norms: list,
                 tol_rel: float = DEFAULT_TOL_REL) -> list:
    """One block of records per case of a stack of lemma cases (row k of
    `terms` is `instance_seeds[k]`'s), as `chain_blocks` builds them, under
    `lemmas.lemma_margins`; `n` and `m` are the sizes the cases were drawn at."""
    norms = order_norms(norms)
    params = sorted((k, np.reshape(v, -1).tolist()) for k, v in case.params.items())
    rows = zip(instance_seeds, *(np.reshape(v, (len(instance_seeds), -1)).tolist()
                                 for v in lemma_margins(terms, norms, tol_rel)))
    norm_dicts = [norm.to_record() for norm in norms]
    blocks = []
    for row, (seed, los, his, mgs, oks) in enumerate(rows):
        head = {"schema_version": SCHEMA_VERSION, "kind": "lemma", "lemma_id": case.lemma_id,
                "instance_seed": seed, "n": n, "m": m,
                "params": {k: float(v[row]) for k, v in params}}
        blocks.append([{**head, "norm": norm, "lhs": lo, "rhs": hi, "margins": [mg], "pass": ok,
                        "gated": False, "status": "proven"}
                       for norm, lo, hi, mg, ok in zip(norm_dicts, los, his, mgs, oks)])
    return blocks


def lemma_records(case: LemmaCase, terms, instance_seed: int, n: int, m: int, norms: list,
                  tol_rel: float = DEFAULT_TOL_REL) -> list:
    """One record per norm of `norms`, in report order, on one lemma case's
    precomputed terms: `lemma_blocks` on a stack of one."""
    return lemma_blocks(case, terms, [instance_seed], n, m, norms, tol_rel)[0]


def record_sort_key(rec: dict):
    """A record's place in a report: its block's key, then its norm's."""
    return _block_key(rec) + (_norm_sort_key(rec.get("norm", {})),)


def _block_key(rec: dict):
    """(chain or lemma id, instance seed, sorted params) of a record: the
    key that the records of one term set share."""
    return (
        rec.get("chain_id") or rec.get("lemma_id") or "",
        rec["instance_seed"],
        tuple(sorted(rec.get("params", {}).items())),
    )


def _norm_sort_key(norm: dict):
    p = norm.get("p")
    if p == "inf":
        p = math.inf
    return (norm.get("variant", ""), norm.get("k") or 0, p or 0.0)


def order_norms(norms: list) -> list:
    """A norm list in report order (stable): the order in which the record
    builders above put a term set's records, one block of
    `build_report_set`."""
    return sorted(norms, key=lambda spec: _norm_sort_key(spec.to_record()))


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


def build_report_set(blocks: list) -> ReportSet:
    """A report set from records in any order, grouped into term-set
    blocks: a block is a list of records that share `_block_key` (one term
    set's records) in report order, as `chain_blocks` and `lemma_blocks`
    build them; a lone record is a block of one.  The
    blocks are sorted by their key, and blocks with equal keys are
    stable-merged by norm, so the records come out as
    `sorted(records, key=record_sort_key)` puts them, with one key per
    block instead of one per record."""
    blocks = [[block] if isinstance(block, dict) else block for block in blocks]
    keyed = [(block, _block_key(block[0])) for block in blocks if block]
    keyed.sort(key=itemgetter(1))
    records = []
    for _, group in groupby(keyed, key=itemgetter(1)):
        group = [block for block, _ in group]
        if len(group) == 1:
            records.extend(group[0])
        else:
            records.extend(sorted(chain.from_iterable(group),
                                  key=lambda rec: _norm_sort_key(rec.get("norm", {}))))
    return ReportSet(records=records, summary=summarize(records))


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def write_reports(obj, path) -> None:
    """Write a ReportSet (JSONL: each record, then the summary, one per
    line) or a SearchResult (one JSON object), as one text with one memo."""
    if isinstance(obj, ReportSet):
        values = [*obj.records, obj.summary]
    elif hasattr(obj, "to_record"):
        values = [obj.to_record()]
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
    parts: list = []
    memo: dict = {}
    for value in values:
        _encode(value, parts, memo)
        parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def _check_version(rec: dict, path) -> None:
    v = rec.get("schema_version")
    if v != SCHEMA_VERSION:
        raise errors.SchemaVersionMismatch(f"{path}: schema_version {v!r}, expected {SCHEMA_VERSION}")


def read_reports(path):
    """Read back a report file; returns ReportSet or SearchResult.  A report
    set's non-blank lines are decoded by one `json.loads` call, as one
    array; if that does not give one value per line, some line is not one
    JSON value, and decoding line by line raises its error."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        return ReportSet(records=[], summary=summarize([]))
    first = json.loads(lines[0])
    _check_version(first, path)
    if first.get("kind") == "search_result":
        from .hunt import SearchResult  # local import avoids a cycle
        return SearchResult.from_record(first)
    decoded = json.loads("[" + ",".join(lines) + "]")
    if len(decoded) != len(lines):
        decoded = [json.loads(ln) for ln in lines]
    records = []
    summary = summarize([])
    for rec in decoded:
        _check_version(rec, path)
        if rec.get("kind") == "summary":
            summary = rec
        else:
            records.append(rec)
    return ReportSet(records=records, summary=summary)
