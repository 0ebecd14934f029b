"""Report records and deterministic serialization.

Report files are newline-delimited JSON: one self-describing record per
line, each carrying schema_version, with a trailing summary record.
Floats are written with 17 significant digits, so read(write(x)) == x and
re-serialization is byte-identical.  A search result (`SearchResult`)
is a single JSON object of the fields RESULT_FIELDS, declared once in
file order; its arg-min point is written by `argmin_record` and read back
by `argmin_point`.

A term set's records (one chain at one point, or one lemma case) are one
`Block`: shared head and tail fields and one column per field that varies
by norm.  `chain_blocks` (`lemma_blocks`) builds one block per point of a
grid and instance of a stack (per case of a lemma stack) from stacked
terms, with no dict per record; `chain_records` (`lemma_records`) is its
one-point form.  Columns are in report order (`order_norms`), and no two
blocks of a report share a key (chain, seed, params), so
`build_report_set` sorts blocks by it, which equals sorting every record
by `record_sort_key`.  `summarize` and `has_proven_failure` read the
columns, and `ReportSet.records` builds record dicts only when something
reads them.

`_encode` is the one function that picks a value's JSON by its type; its
memo formats each repeated key and float once (`dumps` has the rules).
`write_reports` encodes a file into one list of parts with one memo, a
block's head and tail once and then each record's column entries, and
joins it once; nothing encoded outlives the call.  `read_reports` decodes
all of a file's lines with one `json.loads` call.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from . import errors
from .blocks import InstanceSet
from .chains import (DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL, ChainParams, ChainTerms,
                     chain_margins, point_status)
from .lemmas import LemmaCase, lemma_margins
from .norms import NormSpec, norm_values

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps(obj, memo: dict = None) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict key order is preserved as built (records are built with a fixed
    field order), so identical objects serialize to identical bytes.
    Strings are quoted by the function `json.dumps(str)` calls, integers
    written by `str`, infinities as the strings "inf" and "-inf"; NaN
    raises `ValueError` and a value of any other type `TypeError`.

    `_encode` writes the value in one pass, and a memo kept for one call
    (or given: `write_reports` shares one across a file) holds the quoted `"key":`
    prefix of each `str` key and the text of each non-zero float, so a
    report's repeated keys and values (its parameters, condition numbers
    and terms shared by grid points) are formatted once.  A key of any
    other type is written as `str(k)` every time, so keys that compare
    equal but print differently (`1`, `True`, `1.0`) never share a prefix;
    no zero is remembered, since 0.0 and -0.0 compare equal.
    """
    parts: list = []
    _encode(obj, parts, {} if memo is None else memo)
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
# term-set blocks
# ---------------------------------------------------------------------------

@dataclass
class Block:
    """One term set's records (one chain at one point, or one lemma case),
    held as columns: `head` holds the fields before `norm`, `columns` one
    list per field that varies by norm (`norm`, `lhs`, `mid` for chains,
    `rhs`, `margins`, `pass`), all in report order, and `tail` the fields
    after them.  The three have disjoint keys."""

    head: dict
    columns: dict
    tail: dict

    @cached_property
    def records(self) -> list:
        """The record dicts, built on first read."""
        head, tail, names = self.head, self.tail, tuple(self.columns)
        return [{**head, **dict(zip(names, row)), **tail} for row in zip(*self.columns.values())]


def chain_blocks(terms: ChainTerms, n: int, m: int, seeds: list, points: list,
                 norms: list, tol_rel: float = DEFAULT_TOL_REL,
                 condition_cap: float = DEFAULT_CONDITION_CAP) -> list:
    """One `Block` per parameter point and instance of a grid's terms on
    a stack of instances of shape (n, m) (`chains.grid_terms`, cut to the
    shape by `ChainTerms.take`; spectra row (k, i) belongs to `points[k]`
    and the instance of seed `seeds[i]`, seeds a list of ints), over the
    norms of `norms` in report order (`order_norms`): one `norm_values`
    call per term for the whole grid and stack, margins and pass flags
    from `chains.chain_margins`, and each point's status from its chain's
    row at the shape's m (`chains.point_status`).  Every block shares the
    norm column."""
    norms = order_norms(norms)

    def values(sv):
        return norm_values(np.reshape(sv, (-1, np.shape(sv)[-1])), norms)

    lhs, rhs = values(terms.lhs_sv), values(terms.rhs_sv)
    mid = None if terms.mid_sv is None else values(terms.mid_sv)
    margins, _, _, passed = chain_margins(lhs, mid, rhs, tol_rel)
    tails = [(bool(c > condition_cap), "inf" if math.isinf(c) else c)
             for c in np.ravel(terms.condition_max).tolist()]
    statuses = [point_status(terms.chain_id, q, m) for q in points]
    norm_dicts = [norm.to_record() for norm in norms]
    mids = [[None] * len(norms)] * len(lhs) if mid is None else mid.tolist()
    params = [{k: float(v) for k, v in q.as_dict().items()} for q in points]
    rows = zip([q for q in params for _ in seeds], [s for s in statuses for _ in seeds],
               seeds * len(points), tails * len(points), lhs.tolist(), mids, rhs.tolist(),
               np.stack(margins, axis=-1).tolist(), passed.tolist())  # point-major rows
    return [Block({"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": terms.chain_id,
                   "instance_seed": seed, "n": n, "m": m, "params": q},
                  {"norm": norm_dicts, "lhs": los, "mid": mis, "rhs": his, "margins": mgs,
                   "pass": oks},
                  {"gated": gated, "status": status, "condition_max": cond})
            for q, status, seed, (gated, cond), los, mis, his, mgs, oks in rows]


def chain_records(terms: ChainTerms, inst: InstanceSet, params: ChainParams, norms: list,
                  tol_rel: float = DEFAULT_TOL_REL,
                  condition_cap: float = DEFAULT_CONDITION_CAP) -> Block:
    """The block of one chain's precomputed terms on `inst` at one point:
    `chain_blocks` on a grid of one."""
    return chain_blocks(terms, inst.n, inst.m, [inst.seed], [params], norms, tol_rel,
                        condition_cap)[0]


def lemma_blocks(case: LemmaCase, terms, instance_seeds: list, n: int, m: int | list, norms: list,
                 tol_rel: float = DEFAULT_TOL_REL) -> list:
    """One `Block` per case of a stack of lemma cases (row k of `terms` is
    `instance_seeds[k]`'s), as `chain_blocks` builds them, under
    `lemmas.lemma_margins`; `n` is the size the cases were drawn at and `m`
    the m recorded, one for every case or one per case (a sweep stacks an
    m-free lemma's cases of every m of one n, see `lemmas.m_free`)."""
    norms = order_norms(norms)
    ms = np.broadcast_to(m, len(instance_seeds)).tolist()
    params = sorted((k, np.reshape(v, -1).tolist()) for k, v in case.params.items())
    lhs, rhs, margin, passed = (np.reshape(v, (len(instance_seeds), -1))
                                for v in lemma_margins(terms, norms, tol_rel))
    rows = zip(instance_seeds, ms, lhs.tolist(), rhs.tolist(), margin[..., None].tolist(),
               passed.tolist())
    norm_dicts = [norm.to_record() for norm in norms]
    tail = {"gated": False, "status": "proven"}
    return [Block({"schema_version": SCHEMA_VERSION, "kind": "lemma", "lemma_id": case.lemma_id,
                   "instance_seed": seed, "n": n, "m": m,
                   "params": {k: float(v[row]) for k, v in params}},
                  {"norm": norm_dicts, "lhs": los, "rhs": his, "margins": mgs, "pass": oks}, tail)
            for row, (seed, m, los, his, mgs, oks) in enumerate(rows)]


def lemma_records(case: LemmaCase, terms, instance_seed: int, n: int, m: int, norms: list,
                  tol_rel: float = DEFAULT_TOL_REL) -> Block:
    """The block of one lemma case's precomputed terms: `lemma_blocks` on a
    stack of one."""
    return lemma_blocks(case, terms, [instance_seed], n, m, norms, tol_rel)[0]


def record_sort_key(rec: dict):
    """A record's place in a report: its block's key, then its norm's."""
    return _block_key(rec) + (_norm_sort_key(rec.get("norm", {})),)


def _block_key(head: dict):
    """(chain or lemma id, instance seed, sorted params) of a block's head
    or a record: the key that the records of one term set share."""
    return (head.get("chain_id") or head.get("lemma_id") or "", head["instance_seed"],
            tuple(sorted(head.get("params", {}).items())))


def _norm_sort_key(norm: dict):
    p = norm.get("p")
    if p == "inf":
        p = math.inf
    return (norm.get("variant", ""), norm.get("k") or 0, p or 0.0)


def order_norms(norms: list) -> list:
    """A norm list in report order (stable): the order in which the block
    builders above put a term set's records."""
    return sorted(norms, key=lambda spec: _norm_sort_key(spec.to_record()))


# ---------------------------------------------------------------------------
# report sets
# ---------------------------------------------------------------------------

class ReportSet:
    """Ordered `Block`s and record dicts (blocks of one; a report set built
    from `records` holds that list as its blocks) plus a per-(chain, norm
    class) summary.  `records` builds the blocks' dicts on first read."""

    def __init__(self, records: list = None, summary: dict = None, blocks: list = None):
        if blocks is None:
            blocks = [] if records is None else records
        self.blocks, self.summary, self._records = blocks, summary, records

    @property
    def records(self) -> list:
        if self._records is None:
            self._records = [rec for item in self.blocks
                             for rec in (item.records if isinstance(item, Block) else (item,))]
        return self._records


def _norm_class(norm: dict) -> str:
    v = norm.get("variant", "")
    if v == "kyfan":
        return "kyfan"
    if v == "schatten":
        return f"schatten:{norm['p']}" if norm["p"] != "inf" else "schatten:inf"
    return v


def summarize(blocks: list) -> dict:
    """Per-(chain, norm class) minimum margin and pass/gated counts of
    blocks in report order (a record dict is a block of one, so a list of
    records works too).  A block's group numbers are worked out once per
    (chain, norm column), and the counts and minima come from numpy over
    all records; a group's minimum margin is the first in report order
    among equal ones (0.0 and -0.0 compare equal), as a scan keeps it."""
    groups: dict = {}    # (chain, norm class) -> group number
    numbered: dict = {}  # (chain, id of a norm column) -> (column, its group numbers)
    number, least, passed, live, conjectured = [], [], [], [], []
    for item in blocks:
        if not isinstance(item, Block):  # a record: a block of one, read directly
            cid = item.get("chain_id") or item.get("lemma_id")
            number.append(groups.setdefault((cid, _norm_class(item.get("norm", {}))), len(groups)))
            least.append(min(item["margins"]))
            passed.append(item["pass"])
            live.append(not item.get("gated"))
            conjectured.append(item.get("status") == "conjectured")
            continue
        cid, norms = item.head.get("chain_id") or item.head.get("lemma_id"), item.columns["norm"]
        key = (cid, id(norms))
        if key not in numbered:  # the entry holds the column, so its id is not reused
            numbered[key] = (norms, [groups.setdefault((cid, _norm_class(norm)), len(groups))
                                     for norm in norms])
        number += numbered[key][1]
        least += map(min, item.columns["margins"])
        passed += item.columns["pass"]
        live += [not item.tail.get("gated")] * len(norms)
        conjectured += [item.tail.get("status") == "conjectured"] * len(norms)
    number, least = np.array(number, dtype=np.intp), np.array(least, dtype=float)
    live, passed = np.array(live, dtype=bool), np.array(passed, dtype=bool)
    passes, fails, gates = (np.bincount(number[mask], minlength=len(groups)).tolist()
                            for mask in (live & passed, live & ~passed, ~live))
    order = np.flatnonzero(live)
    order = order[np.lexsort((least[order], number[order]))]  # stable: ties stay in order
    firsts = order[np.flatnonzero(np.diff(number[order], prepend=-1))]
    mins = dict(zip(number[firsts].tolist(), least[firsts].tolist()))
    rows = [{"chain": cid, "norm_class": nc, "min_margin": mins.get(g), "pass_count": passes[g],
             "fail_count": fails[g], "gated_count": gates[g]}
            for (cid, nc), g in sorted(groups.items())]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "summary",
        "total_records": len(number),
        "candidates": int(np.count_nonzero(live & ~passed & np.array(conjectured, dtype=bool))),
        "groups": rows,
    }


def has_proven_failure(rs: ReportSet) -> bool:
    """True if any non-gated proven-regime record failed its tolerance, read
    from each block's tail and pass column (a record dict is a block of one)."""
    for item in rs.blocks:
        passes, tail = ((item.columns["pass"], item.tail) if isinstance(item, Block)
                        else ([item["pass"]], item))
        if not tail["gated"] and tail.get("status") == "proven" and not all(passes):
            return True
    return False


def build_report_set(blocks: list) -> ReportSet:
    """A report set from `Block`s and record dicts (blocks of one) in any
    order, each block in report order as the builders make it: the blocks
    are sorted by the key of their head, so the records come out as
    `sorted(records, key=record_sort_key)` puts them.  Two blocks with one
    key raise `ValueError`: a validated sweep never makes them, since it
    refuses a repeated chain, parameter value or norm."""
    keyed = sorted(((_block_key(item.head if isinstance(item, Block) else item), item)
                    for item in blocks), key=itemgetter(0))
    for (key, _), (after, _) in zip(keyed, keyed[1:]):
        if key == after:
            raise ValueError(f"two blocks have the key {key!r}")
    ordered = [item for _, item in keyed]
    return ReportSet(blocks=ordered, summary=summarize(ordered))


# ---------------------------------------------------------------------------
# search results
# ---------------------------------------------------------------------------

# The fields of a search result record after schema_version and kind, in
# file order.
RESULT_FIELDS = ("base_seed", "samples_evaluated", "gated_count", "min_margin", "candidate",
                 "recheck_margin", "argmin")


@dataclass
class SearchResult:
    """Minimum normalized margin found and a reproducible arg-min point
    (`argmin_record`), or None when every sample was gated.

    The record holds the fields of RESULT_FIELDS.  wall_seconds is
    informational and excluded from serialization so that repeated runs
    write byte-identical files.
    """

    base_seed: int
    samples_evaluated: int
    gated_count: int
    min_margin: float
    candidate: bool
    recheck_margin: float | None
    argmin: dict | None
    wall_seconds: float = 0.0

    def to_record(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": "search_result",
                **{name: getattr(self, name) for name in RESULT_FIELDS}}

    @classmethod
    def from_record(cls, rec: dict) -> "SearchResult":
        """Inverse of `to_record`; a missing field, or a min_margin that is
        not a number, raises MalformedRecord."""
        values = dict(zip(RESULT_FIELDS, _fields(rec, "search result", RESULT_FIELDS)))
        try:
            values["min_margin"] = float(values["min_margin"])  # "inf" when every sample was gated
        except (TypeError, ValueError):  # only float() raises these
            raise errors.MalformedRecord(
                f"search result min_margin is not a number: {values['min_margin']!r}") from None
        return cls(**values)


def _fields(rec, what: str, names: tuple) -> list:
    """The values of fields `names` of record `rec`, in order; a record that
    is not a JSON object, or lacks one of them, raises MalformedRecord."""
    try:
        return [rec[name] for name in names]
    except KeyError as exc:
        raise errors.MalformedRecord(f"{what} lacks field {exc.args[0]!r}") from None
    except TypeError:
        raise errors.MalformedRecord(f"{what} is not a JSON object: {type(rec).__name__}") from None


def _complex_to_lists(M: np.ndarray) -> list:
    """Nested lists of [re, im] pairs of a complex array."""
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _lists_to_complex(rows: list) -> np.ndarray:
    """The complex array, bit for bit, of nested lists of [re, im] pairs;
    ragged nesting, or entries that are not pairs, raise DimensionMismatch."""
    try:
        return np.array(rows, dtype=np.float64).view(np.complex128).squeeze(-1)
    except ValueError as exc:
        raise errors.DimensionMismatch(f"matrix entries are not [re, im] pairs: {exc}") from None


def argmin_record(inst: InstanceSet, params: ChainParams, spec: NormSpec, margin: float) -> dict:
    """The arg-min record of a search result: the weighted chain's point
    `params` on `inst` under `spec`, its margin and status, and the
    matrices as [re, im] pairs."""
    return {
        "kind": inst.kind,
        "n": inst.n,
        "m": inst.m,
        "instance_seed": inst.seed,
        "params": params.as_dict(),
        "norm": spec.to_record(),
        "margin": margin,
        "status": point_status("t-chain", params, inst.m),
        "A": _complex_to_lists(inst.A),
        "B": _complex_to_lists(inst.B),
    }


def argmin_point(arg) -> tuple:
    """(InstanceSet, ChainParams, NormSpec) of an arg-min record: the
    inverse of `argmin_record`.  A missing field, or a parameter that is
    not a number, raises MalformedRecord."""
    n, m, seed, kind, params, norm, A, B = _fields(
        arg, "arg-min", ("n", "m", "instance_seed", "kind", "params", "norm", "A", "B"))
    params = dict(zip("srpt", _fields(params, "arg-min params", ("s", "r", "p", "t"))))
    for name, v in params.items():
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            raise errors.MalformedRecord(f"arg-min param {name!r} is not a number: {v!r}")
    inst = InstanceSet(m=m, n=n, A=_lists_to_complex(A), B=_lists_to_complex(B), seed=seed,
                       kind=kind)
    return inst, ChainParams(**params), NormSpec.from_record(norm)


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def _texts(values, memo: dict, shared: dict) -> list:
    """The JSON text of each value of a column: a float through `memo`, a
    list item by item, any other value once per object (`shared`, by id)."""
    out = []
    for v in values:
        if type(v) is float:
            out.append(memo.get(v) or _float_text(v, memo))
        elif type(v) is list:
            out.append("[" + ",".join(_texts(v, memo, shared)) + "]")
        else:
            text = shared.get(id(v))
            if text is None:
                text = shared[id(v)] = dumps(v, memo)
            out.append(text)
    return out


def _block_lines(block: Block, parts: list, memo: dict, shared: dict) -> None:
    """Append the lines of a block's records to `parts`, with the bytes
    `_encode` gives their dicts: a line template holds the head and tail,
    and each record fills in the texts of its column entries."""
    fields = [dumps(block.head, memo)[1:-1], *(_quote(name) + ":" for name in block.columns),
              dumps(block.tail, memo)[1:-1]]
    fields = [text.replace("%", "%%") for text in fields]
    fields[1:-1] = [text + "%s" for text in fields[1:-1]]
    template = "{" + ",".join(filter(None, fields)) + "}\n"
    columns = [_texts(values, memo, shared) for values in block.columns.values()]
    parts.extend(map(template.__mod__, zip(*columns)))


def write_reports(obj, path) -> None:
    """Write a ReportSet (JSONL: each record, then the summary, one per
    line) or a SearchResult (one JSON object), as one text with one memo."""
    if isinstance(obj, ReportSet):
        values = [*obj.blocks, obj.summary]
    elif isinstance(obj, SearchResult):
        values = [obj.to_record()]
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
    parts: list = []
    memo: dict = {}
    shared: dict = {}
    for value in values:
        if isinstance(value, Block):
            _block_lines(value, parts, memo, shared)
        else:
            _encode(value, parts, memo)
            parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def _check_version(rec, path, line: str) -> None:
    """Refuse the decoded `line` when it is not a JSON object
    (MalformedRecord, quoting its first 40 characters) or is of another
    schema version."""
    if not isinstance(rec, dict):
        raise errors.MalformedRecord(f"{path}: line {line[:40]!r} is not a JSON object")
    v = rec.get("schema_version")
    if v != SCHEMA_VERSION:
        raise errors.SchemaVersionMismatch(f"{path}: schema_version {v!r}, expected {SCHEMA_VERSION}")


def read_reports(path):
    """Read back a report file; returns ReportSet or SearchResult.  A search
    result is one non-blank line, and a line after it raises
    MalformedRecord.  A report set's non-blank lines are decoded by one `json.loads` call, as one
    array; if that does not give one value per line, some line is not one
    JSON value, and decoding line by line raises its error."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        return ReportSet(records=[], summary=summarize([]))
    first = json.loads(lines[0])
    _check_version(first, path, lines[0])
    if first.get("kind") == "search_result":
        if len(lines) > 1:
            raise errors.MalformedRecord(
                f"{path}: search result followed by line {lines[1][:40]!r}")
        return SearchResult.from_record(first)
    decoded = json.loads("[" + ",".join(lines) + "]")
    if len(decoded) != len(lines):
        decoded = [json.loads(ln) for ln in lines]
    records = []
    summary = summarize([])
    for rec, line in zip(decoded, lines):
        _check_version(rec, path, line)
        if rec.get("kind") == "summary":
            summary = rec
        else:
            records.append(rec)
    return ReportSet(records=records, summary=summary)
