"""Report records and deterministic serialization.

Report files are newline-delimited JSON: one self-describing record per
line, each carrying schema_version, with a trailing summary record.
Floats are written with 17 significant digits, so read(write(x)) == x and
re-serialization is byte-identical.  A search result (`SearchResult`)
is a single JSON object of its dataclass fields, declared once in file
order (RESULT_FIELDS is their names), so a new result field is one
dataclass line; its arg-min point is written by `argmin_record` and read
back by `argmin_point`.

A report's records are held as grid `Block`s: one block is one chain
at every point of a grid on a stack of instances of one shape
(`chain_block`), or one lemma's stack of cases (`lemma_block`), as arrays
with no dict per record.  A row is one term set and writes one record per
norm, in report order (`order_norms`); one instance at one point, or one
case, is a block of one row.  `build_report_set` puts every row of every
block in report order by one `np.lexsort` of the key (id, seed, params)
that `record_sort_key` gives, and works out the summary in one numpy pass
over the blocks' arrays, by `_summary`, the reduction that `summarize`
applies to record dicts read back.  `has_proven_failure` is one array
test per block, and `Block.records` and `ReportSet.records` build record
dicts only when something reads them.

`_encode` is the one function that picks a value's JSON by its type; its
memo formats each repeated float once (`dumps` has the rules).
`write_reports` writes a file as one text with one memo: each block's
rows from its head, record and tail templates (`Block.lines`), in report
order, then the summary; nothing encoded outlives the call.
`read_reports` decodes all of a file's lines with one `json.loads` call,
and checks that the summary record has the fields that `show` prints.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

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
    (or given: `write_reports` shares one across a file) holds the text of
    each non-zero float, so a report's repeated values (its parameters,
    condition numbers and terms shared by grid points) are formatted once;
    no zero is remembered, since 0.0 and -0.0 compare equal.  A key is
    written as `str(k)`, so keys that compare equal but print differently
    (`1`, `True`, `1.0`) keep their own text.
    """
    parts: list = []
    _encode(obj, parts, {} if memo is None else memo)
    return "".join(parts)


# A memo maps each non-zero float to its text.  It is emptied at this many
# entries, so that it stays small on a file of unique values.
_MEMO_MAX = 4096


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
    if v:
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[v] = s
    return s


def _encode(v, parts: list, memo: dict) -> None:
    """Append the JSON of any value to `parts`, dispatched by `isinstance`
    (so a subclass is written as its base type)."""
    if v is None:
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
        sep = "{"
        for k, x in v.items():
            parts.append(sep)
            sep = ","
            parts.append(_quote(str(k)) + ":")
            _encode(x, parts, memo)
        parts.append("}" if sep == "," else "{}")
    elif isinstance(v, (list, tuple)):
        sep = "["
        for x in v:
            parts.append(sep)
            sep = ","
            _encode(x, parts, memo)
        parts.append("]" if sep == "," else "[]")
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


# ---------------------------------------------------------------------------
# record grids
# ---------------------------------------------------------------------------

@dataclass
class Block:
    """The records of a grid of term sets, as arrays: one chain at every
    point of a grid on a stack of instances of one shape (`chain_block`), or
    one lemma's stack of cases (`lemma_block`).  A row is one term set (one
    instance at one point, or one case) and writes one record per norm.

    Shared by every row: `kind` ("chain" or "lemma"), `id` (the chain or
    lemma id), `n`, and `norms`, the D norm records in report order
    (`order_norms`).  Per row, R of them: `seeds` and `ms` (lists of ints),
    `params`, a dict of (R,) float columns by name (a chain's in `as_dict`
    order, a lemma's sorted), `gated` (R,) bool, `status` (R,) str and a
    chain's `condition_max` (R,) (None for a lemma).  Per record: `lhs`,
    `mid` and `rhs` (R, D), `margins` (R, D, 1 or 2) and `passed` (R, D)
    bool; `mid` is None for a lemma, and for a chain without a middle term,
    which writes "mid": null."""

    kind: str
    id: str
    n: int
    norms: list
    seeds: list
    ms: list
    params: dict
    gated: np.ndarray
    status: np.ndarray
    condition_max: np.ndarray | None
    lhs: np.ndarray
    mid: np.ndarray | None
    rhs: np.ndarray
    margins: np.ndarray
    passed: np.ndarray

    @cached_property
    def records(self) -> list:
        """The record dicts, row after row, built on first read: the arrays'
        values zipped into dicts in field order (an infinite condition_max
        as "inf"), never taken from `lines`, so that the records stand
        beside the writer as what it must write."""
        rows, D = len(self.seeds), len(self.norms)
        params = np.reshape(list(self.params.values()), (len(self.params), rows)).T.tolist()
        heads = [{"schema_version": SCHEMA_VERSION, "kind": self.kind, f"{self.kind}_id": self.id,
                  "instance_seed": seed, "n": self.n, "m": m, "params": dict(zip(self.params, q))}
                 for seed, m, q in zip(self.seeds, self.ms, params)]
        tails = [{"gated": gated, "status": status}
                 for gated, status in zip(self.gated.tolist(), self.status.tolist())]
        if self.kind == "chain":
            for tail, condition in zip(tails, self.condition_max.tolist()):
                tail["condition_max"] = "inf" if math.isinf(condition) else condition
        columns = {"norm": self.norms * rows, "lhs": self.lhs.ravel().tolist(),
                   "mid": [None] * (rows * D) if self.mid is None else self.mid.ravel().tolist(),
                   "rhs": self.rhs.ravel().tolist(),
                   "margins": [pair for row in self.margins.tolist() for pair in row],
                   "pass": self.passed.ravel().tolist()}
        if self.kind == "lemma":
            del columns["mid"]
        return [{**heads[i // D], **dict(zip(columns, values)), **tails[i // D]}
                for i, values in enumerate(zip(*columns.values()))]

    def lines(self, memo: dict) -> list:
        """The text of each row's records, with the bytes `_encode` gives
        their dicts.  A head and a tail template hold a row's fields (the
        kind, id and n written once) and are filled once per row; a record
        template holds the fields that vary by norm, each norm's text shared
        by every row.  Floats are formatted through `memo`."""
        def floats(values) -> list:
            return [memo.get(v) or _float_text(v, memo) for v in np.ravel(values).tolist()]

        def text(name: str) -> str:  # quoted, for a template
            return _quote(name).replace("%", "%%")

        chain, k, D = self.kind == "chain", len(self.params), len(self.norms)
        names = ",".join(text(name) + ":%s" for name in self.params)
        head = (f'{{"schema_version":{SCHEMA_VERSION},"kind":{text(self.kind)},'
                f'{text(self.kind + "_id")}:{text(self.id)},"instance_seed":%s,"n":{self.n},'
                f'"m":%s,"params":{{{names}}},')
        mid = ('"mid":null,' if self.mid is None else '"mid":%s,') if chain else ""
        record = ('"norm":%s,"lhs":%s,' + mid + '"rhs":%s,"margins":['
                  + ",".join(["%s"] * self.margins.shape[-1]) + '],"pass":%s')
        # a lemma has no condition number: its rows fill the last slot with ""
        tail = ',"gated":%s,"status":%s' + (',"condition_max":%s' if chain else "%s") + "}\n"
        truth, params = ("false", "true"), floats(np.transpose(list(self.params.values())))
        conditions = floats(self.condition_max) if chain else [""] * len(self.seeds)
        rows = [(head % (seed, m, *params[r * k:r * k + k]),
                 tail % (truth[gated], _quote(status), condition))
                for r, (seed, m, gated, status, condition) in enumerate(zip(
                    self.seeds, self.ms, self.gated.tolist(), self.status.tolist(), conditions))]
        columns = [floats(v) for v in (self.lhs, self.mid, self.rhs,
                                       *np.moveaxis(self.margins, -1, 0)) if v is not None]
        columns.append([truth[ok] for ok in self.passed.ravel().tolist()])
        norms = [dumps(norm, memo) for norm in self.norms]
        texts = list(map(record.__mod__, zip(norms * len(rows), *columns)))
        return [pre + (post + pre).join(texts[r * D:r * D + D]) + post
                for r, (pre, post) in enumerate(rows)]


def chain_block(terms: ChainTerms, n: int, m: int, seeds: list, points: list,
                norms: list, tol_rel: float = DEFAULT_TOL_REL,
                condition_cap: float = DEFAULT_CONDITION_CAP) -> Block:
    """The `Block` of a grid's terms on a stack of instances of shape (n, m)
    (`chains.grid_terms`, cut to the shape by `ChainTerms.take`; spectra row
    (k, i) belongs to `points[k]` and the instance of seed `seeds[i]`, seeds
    a list of ints), one row per point and instance, point by point, over
    the norms of `norms` in report order (`order_norms`): one `norm_values`
    call per term for the whole grid and stack, margins and pass flags from
    `chains.chain_margins`, and each point's status from its chain's row at
    the shape's m (`chains.point_status`)."""
    norms = order_norms(norms)

    def values(sv):
        return norm_values(np.reshape(sv, (-1, np.shape(sv)[-1])), norms)

    lhs, rhs = values(terms.lhs_sv), values(terms.rhs_sv)
    mid = None if terms.mid_sv is None else values(terms.mid_sv)
    margins, _, _, passed = chain_margins(lhs, mid, rhs, tol_rel)
    condition = np.tile(np.ravel(terms.condition_max), len(points))
    names = tuple(ChainParams().as_dict())
    params = np.array([list(q.as_dict().values()) for q in points], dtype=float)
    status = point_status(terms.chain_id, ChainParams(*params.T), m)
    return Block("chain", terms.chain_id, n, [norm.to_record() for norm in norms],
                 list(seeds) * len(points), [m] * len(lhs),
                 dict(zip(names, np.repeat(params.reshape(-1, len(names)), len(seeds), axis=0).T)),
                 condition > condition_cap, np.repeat(status, len(seeds)),
                 condition, lhs, mid, rhs, np.stack(margins, axis=-1), passed)


def lemma_block(case: LemmaCase, terms, instance_seeds: list, n: int, ms: list, norms: list,
                tol_rel: float = DEFAULT_TOL_REL) -> Block:
    """The `Block` of a stack of lemma cases (row k of `terms` is
    `instance_seeds[k]`'s), as `chain_block` builds it, under
    `lemmas.lemma_margins`; `n` is the size the cases were drawn at and
    `ms` the m recorded for each case (a sweep stacks an m-free lemma's
    cases of every m of one n, see `lemmas.m_free`)."""
    norms, rows = order_norms(norms), len(instance_seeds)
    lhs, rhs, margin, passed = (np.reshape(v, (rows, -1))
                                for v in lemma_margins(terms, norms, tol_rel))
    return Block("lemma", case.lemma_id, n, [norm.to_record() for norm in norms],
                 list(instance_seeds), list(ms),
                 {name: np.reshape(case.params[name], -1).astype(float)
                  for name in sorted(case.params)}, np.zeros(rows, dtype=bool),
                 np.full(rows, "proven"), None, lhs, None, rhs, margin[..., None], passed)


def record_sort_key(rec: dict):
    """A record's place in a report: (chain or lemma id, instance seed,
    sorted params), the key that the records of one term set share, then
    its norm's."""
    return (rec.get("chain_id") or rec.get("lemma_id") or "", rec["instance_seed"],
            tuple(sorted(rec.get("params", {}).items())), _norm_sort_key(rec.get("norm", {})))


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
    """A report's records in report order and its summary record.
    `build_report_set` makes one of `Block`s and `order`, the report order
    of their rows (numbered block after block; every row in block order
    when not given), and `records` builds the record dicts on first read;
    `read_reports` makes one of record dicts."""

    def __init__(self, records: list = None, summary: dict = None, blocks: list = (),
                 order: list = None):
        self.blocks, self.summary, self._records = list(blocks), summary, records
        self.order = range(sum(len(b.seeds) for b in self.blocks)) if order is None else order

    @property
    def records(self) -> list:
        if self._records is None:
            rows = [block.records[i:i + len(block.norms)] for block in self.blocks
                    for i in range(0, block.passed.size, len(block.norms))]
            self._records = [rec for row in self.order for rec in rows[row]]
        return self._records


def _norm_class(norm: dict) -> str:
    v = norm.get("variant", "")
    if v == "kyfan":
        return "kyfan"
    if v == "schatten":
        return f"schatten:{norm['p']}"
    return v


# The fields of a summary record's group, in file order (`_summary`).
GROUP_FIELDS = ("chain", "norm_class", "min_margin", "pass_count", "fail_count", "gated_count")


def _summary(groups: dict, number, least, passed, live, conjectured) -> dict:
    """The summary record of a report's records, given in report order as
    columns: the number of each one's (chain, norm class) in `groups`, its
    least margin, and whether it passed, is live (not gated) and is
    conjectured.  A group's minimum margin is the first in report order
    among equal ones (0.0 and -0.0 compare equal), as a scan keeps it."""
    number, least = np.asarray(number, dtype=np.intp), np.asarray(least, dtype=float)
    passed, live, conjectured = (np.asarray(x, dtype=bool) for x in (passed, live, conjectured))
    passes, fails, gates = (np.bincount(number[mask], minlength=len(groups)).tolist()
                            for mask in (live & passed, live & ~passed, ~live))
    order = np.flatnonzero(live)
    order = order[np.lexsort((least[order], number[order]))]  # stable: ties stay in order
    firsts = order[np.flatnonzero(np.diff(number[order], prepend=-1))]
    mins = dict(zip(number[firsts].tolist(), least[firsts].tolist()))
    rows = [dict(zip(GROUP_FIELDS, (cid, nc, mins.get(g), passes[g], fails[g], gates[g])))
            for (cid, nc), g in sorted(groups.items())]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "summary",
        "total_records": len(number),
        "candidates": int(np.count_nonzero(live & ~passed & conjectured)),
        "groups": rows,
    }


def summarize(records: list) -> dict:
    """Per-(chain, norm class) minimum margin and pass/gated counts of
    record dicts in report order (`_summary`)."""
    groups: dict = {}  # (chain, norm class) -> group number
    number = [groups.setdefault((rec.get("chain_id") or rec.get("lemma_id"),
                                 _norm_class(rec.get("norm", {}))), len(groups))
              for rec in records]
    return _summary(groups, number, [min(rec["margins"]) for rec in records],
                    [rec["pass"] for rec in records], [not rec.get("gated") for rec in records],
                    [rec.get("status") == "conjectured" for rec in records])


def _grid_summary(blocks: list, order: np.ndarray) -> dict:
    """`_summary` of the records of `blocks` whose rows are in report order
    `order`: a row's records are contiguous, so a row column is repeated
    over its records and a record column (R, D) gathered by one index;
    a record's least margin is the first least of its one or two (as `min`
    keeps it)."""
    groups: dict = {}
    numbers = [[groups.setdefault((block.id, _norm_class(norm)), len(groups))
                for norm in block.norms] for block in blocks]
    width = np.array([len(block.norms) for block in blocks for _ in block.seeds])
    start, width = (np.cumsum(width) - width)[order], width[order]
    records = np.repeat(start - np.cumsum(width) + width, width) + np.arange(width.sum())

    def by_record(values):
        return np.concatenate([np.ravel(v) for v in values])[records]

    def by_row(values):
        return np.repeat(np.concatenate(list(values))[order], width)

    least = [np.where(b.margins[..., -1] < b.margins[..., 0], b.margins[..., -1], b.margins[..., 0])
             for b in blocks]
    return _summary(groups, by_record(np.broadcast_to(number, b.passed.shape)
                                      for number, b in zip(numbers, blocks)),
                    by_record(least), by_record(b.passed for b in blocks),
                    by_row(~b.gated for b in blocks), by_row(b.status == "conjectured" for b in blocks))


def has_proven_failure(rs: ReportSet) -> bool:
    """True if any non-gated proven-regime record of a report set of
    blocks failed its tolerance: one array test per block."""
    return any(bool(((~b.gated & (b.status == "proven"))[:, None] & ~b.passed).any())
               for b in rs.blocks)


def build_report_set(blocks: list) -> ReportSet:
    """A report set of `Block`s in any order, each row's norms in report
    order as the builders make them, and the blocks of one id with the
    same param names: one `np.lexsort` of every row's key (id, instance
    seed, params in name order), the key `record_sort_key` gives, puts the
    records where `sorted(records, key=record_sort_key)` puts them, and the
    summary is one pass over the blocks' arrays.  Two rows with one key
    raise `ValueError`: a validated sweep never makes them, since it
    refuses a repeated chain, parameter value or norm."""
    if not blocks:
        return ReportSet(records=[], summary=summarize([]))
    ids = sorted({block.id for block in blocks})
    seeds = [seed for block in blocks for seed in block.seeds]
    rank = {seed: i for i, seed in enumerate(sorted(set(seeds)))}
    keys = np.zeros((len(seeds), 2 + max(len(block.params) for block in blocks)))
    keys[:, 0] = [ids.index(block.id) for block in blocks for _ in block.seeds]
    keys[:, 1] = [rank[seed] for seed in seeds]
    at = np.cumsum([0] + [len(block.seeds) for block in blocks])
    for block, lo, hi in zip(blocks, at, at[1:]):
        keys[lo:hi, 2:2 + len(block.params)] = np.transpose(
            [block.params[name] for name in sorted(block.params)])
    order = np.lexsort(keys.T[::-1])
    same = np.flatnonzero((keys[order[1:]] == keys[order[:-1]]).all(axis=1))
    if same.size:
        rec = ReportSet(blocks=blocks, order=order[same[:1]]).records[0]
        raise ValueError(f"two term sets have the key {record_sort_key(rec)[:3]!r}")
    return ReportSet(summary=_grid_summary(blocks, order), blocks=blocks, order=order.tolist())


# ---------------------------------------------------------------------------
# search results
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    """Minimum normalized margin found and a reproducible arg-min point
    (`argmin_record`), or None when every sample was gated.

    Its fields are exactly its record's, after schema_version and kind, in
    file order (RESULT_FIELDS); it holds nothing else, so repeated runs
    write byte-identical files.
    """

    base_seed: int
    samples_evaluated: int
    gated_count: int
    min_margin: float
    candidate: bool
    recheck_margin: float | None
    argmin: dict | None

    def to_record(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": "search_result",
                **{name: getattr(self, name) for name in RESULT_FIELDS}}

    @classmethod
    def from_record(cls, rec: dict) -> "SearchResult":
        """Inverse of `to_record`; a missing field, or a min_margin or a
        recheck_margin other than null that is not a number, raises
        MalformedRecord."""
        values = dict(zip(RESULT_FIELDS, _fields(rec, "search result", RESULT_FIELDS)))
        for name in ("min_margin", "recheck_margin"):
            if name == "recheck_margin" and values[name] is None:  # no recheck was made
                continue
            try:  # min_margin is "inf" when every sample was gated
                values[name] = float(values[name])
            except (TypeError, ValueError):  # only float() raises these
                raise errors.MalformedRecord(
                    f"search result {name} is not a number: {values[name]!r}") from None
        return cls(**values)


# The fields of a search result record after schema_version and kind, in
# file order.
RESULT_FIELDS = tuple(f.name for f in fields(SearchResult))


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
    n, m, seed, kind, params, norm, A, B, _ = _fields(
        arg, "arg-min", ("n", "m", "instance_seed", "kind", "params", "norm", "A", "B", "status"))
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

def write_reports(obj, path) -> None:
    """Write a ReportSet (JSONL: each record, then the summary, one per
    line) or a SearchResult (one JSON object), as one text with one memo:
    a report set of blocks as each row's lines (`Block.lines`) in report
    order, any other record by `_encode`."""
    parts: list = []
    memo: dict = {}
    if isinstance(obj, ReportSet):
        rows = [text for block in obj.blocks for text in block.lines(memo)]
        parts.extend(map(rows.__getitem__, obj.order))
        values = [*([] if obj.blocks else obj.records), obj.summary]
    elif isinstance(obj, SearchResult):
        values = [obj.to_record()]
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
    for value in values:
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
    MalformedRecord.  A report set's non-blank lines are decoded by one
    `json.loads` call, as one array; if that does not give one value per
    line, some line is not one JSON value, and decoding line by line
    raises its error.  A report set's summary record may stand on any
    line; records without one raise MalformedRecord (a file cut short), as
    does a summary without its totals or groups, or a group without one of
    GROUP_FIELDS, and a file of no non-blank line is the empty report set."""
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
    records, summary = [], None
    for rec, line in zip(decoded, lines):
        _check_version(rec, path, line)
        if rec.get("kind") == "summary":
            summary = rec
        else:
            records.append(rec)
    if summary is None:
        raise errors.MalformedRecord(f"{path}: {len(records)} records and no summary record")
    *_, groups = _fields(summary, f"{path}: summary", ("total_records", "candidates", "groups"))
    if not isinstance(groups, list):
        raise errors.MalformedRecord(f"{path}: summary groups are not a list: {groups!r:.40}")
    for group in groups:
        _fields(group, f"{path}: summary group", GROUP_FIELDS)
    return ReportSet(records=records, summary=summary)
