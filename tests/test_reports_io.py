"""The report encoder and reader against their per-value and per-line
forms.

`oracle_dumps` is a plain recursive encoder: one call per value,
`isinstance` dispatch, every key and float formatted afresh.
`reports.dumps`, which remembers floats, must write exactly its bytes,
raise where it raises, and do so through `write_reports`, which encodes a
whole file with one memo and one join.  The drawn values include
subclasses (of str, int, float, dict and list), which must be written as
their base types.
"""

import dataclasses
import enum
import json
import math
import pathlib
import re
import tempfile
from collections import OrderedDict
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmineq import errors, reports
from gmineq.generate import SpectrumLaw
from gmineq.hunt import SearchConfig, SearchResult, _sample_points, evaluate_argmin, hunt
from gmineq.chains import ChainParams, expand_norm_tokens, grid_terms
from gmineq.generate import generate_instance
from gmineq.norms import NormSpec
from gmineq.lemmas import lemma_terms, random_case
from gmineq.reports import (RESULT_FIELDS, SCHEMA_VERSION, Block, ReportSet, build_report_set,
                            chain_block, dumps, has_proven_failure, lemma_block, order_norms, read_reports, record_sort_key, summarize, write_reports)
from gmineq.sweep import KNOWN_CHAINS, SweepConfig, run_sweep


def _oracle_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(x, ".17g")
    if not any(c in s for c in ".e"):
        s += ".0"
    return s


def oracle_dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _oracle_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(oracle_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_quote(str(k))}:{oracle_dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Str(str):
    pass


class _List(list):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = 2 ** 70


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.inf, -math.inf,
                  1e16, -1e16, 1e17, 2.0 ** 53, 123.0, 0.1, 1.0 / 3.0]
floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL_FLOATS))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 80),
    st.integers(max_value=-(2 ** 63)),
    floats,
    floats.map(np.float64),
    st.text(),
    st.sampled_from(["\x00", "\x1f\x7f", "café", " ", "\U0001f600", '"\\/', "\ud800"]),
    st.text(max_size=4).map(_Str),
    st.sampled_from(_Level),
)
# Keys that compare equal across types (1 == True == 1.0, 0 == False == -0.0)
# but print differently, next to the str keys they print as.
keys = st.one_of(st.sampled_from([1, True, 1.0, "1", "True", "1.0", 0, False, 0.0, -0.0, None]),
                 st.text(max_size=4), st.integers(), floats, st.text(max_size=4).map(_Str),
                 st.sampled_from(_Level))


def _containers(children):
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(keys, children, max_size=4),
                     st.lists(children, max_size=4).map(_List),
                     st.dictionaries(keys, children, max_size=4).map(OrderedDict))


values = st.recursive(scalars, _containers, max_leaves=24)


def _buried(leaves):
    """Nested containers with one of `leaves` somewhere inside, among other
    values."""
    def wrap(inner):
        return st.one_of(
            st.tuples(st.lists(values, max_size=2), inner, st.lists(values, max_size=2))
            .map(lambda t: [*t[0], t[1], *t[2]]),
            st.tuples(st.lists(values, max_size=2), inner).map(lambda t: (*t[0], t[1])),
            st.tuples(st.dictionaries(keys, values, max_size=2), keys, inner)
            .map(lambda t: {**t[0], t[1]: t[2]}),
        )
    return st.recursive(st.sampled_from(leaves), wrap, max_leaves=6)


class TestEncoderAgainstRecursiveForm:
    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_same_bytes(self, value):
        assert dumps(value) == oracle_dumps(value)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.dictionaries(keys, values, max_size=5), max_size=6), values)
    def test_same_bytes_through_write_reports(self, records, summary):
        # one memo serves every line of the file
        with tempfile.TemporaryDirectory() as folder:
            path = pathlib.Path(folder) / "r.jsonl"
            write_reports(ReportSet(records=records, summary=summary), path)
            text = path.read_text(encoding="utf-8")
        assert text == "".join(oracle_dumps(v) + "\n" for v in [*records, summary])

    def test_equal_keys_that_print_differently(self):
        value = [{1: 0}, {True: 0}, {1.0: 0}, {"1": 0}, {0.0: 1}, {-0.0: 1}, {False: 1}]
        assert dumps(value) == oracle_dumps(value)
        assert dumps(value) == ('[{"1":0},{"True":0},{"1.0":0},{"1":0},'
                                '{"0.0":1},{"-0.0":1},{"False":1}]')

    def test_signed_zeros_and_repeats(self):
        # the memo remembers no zero: 0.0 and -0.0 compare equal
        value = {"a": [0.0, -0.0, 0.0, -0.0], "b": {0.5: -0.0, "c": 0.0}, "c": [1e16, 1e16, 2.5, 2.5]}
        assert dumps(value) == oracle_dumps(value)
        assert dumps(value).startswith('{"a":[0.0,-0.0,0.0,-0.0],"b":{"0.5":-0.0,"c":0.0}')

    def test_memo_overflow(self):
        # more distinct floats than the memo holds, each repeated, among many keys
        n = 2 * reports._MEMO_MAX + 7
        value = [[i / 7.0 for i in range(n)] * 2, [{f"k{i % n}": i / 3.0} for i in range(2 * n)]]
        assert dumps(value) == oracle_dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(_buried([math.nan, -math.nan, np.float64("nan")]))
    def test_nan_at_any_depth_raises_value_error(self, value):
        with pytest.raises(ValueError):
            oracle_dumps(value)
        with pytest.raises(ValueError):
            dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(_buried([np.int64(3), {1, 2}, frozenset(), np.bool_(True), b"x"]))
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            oracle_dumps(value)
        with pytest.raises(TypeError):
            dumps(value)


def _record(kind="chain", version=SCHEMA_VERSION, **fields):
    return {"schema_version": version, "kind": kind, **fields}


_SORT_TOKENS = ["kyfan:1", "kyfan:2", "kyfan:10", "schatten:2", "schatten:inf", "trace", "operator",
                "frobenius"]


def _grid(block_id="main", seeds=(1,), params=((2.0,),), names=("s",), norms=("trace",),
          margins=None, passed=None, gated=None, status="proven", kind="chain",
          condition_max=None):
    """A hand-made `Block` of R = len(seeds) rows over the norm tokens
    `norms` (D of them, in report order): margins (R, D, c), zeros by
    default, and a per-row or shared status."""
    rows, D = len(seeds), len(norms)
    margins = np.zeros((rows, D, 1)) if margins is None else np.array(margins, dtype=float)
    chain = kind == "chain"
    return Block(kind, block_id, 1, [NormSpec.parse(tok).to_record() for tok in norms], list(seeds),
                 [1] * rows, {name: np.array(column, dtype=float)
                              for name, column in zip(names, zip(*params))},
                 np.zeros(rows, bool) if gated is None else np.array(gated),
                 np.broadcast_to(np.array(status), rows).copy(),
                 (np.ones(rows) if condition_max is None else np.array(condition_max, dtype=float))
                 if chain else None,
                 np.zeros((rows, D)), None, np.ones((rows, D)), margins,
                 np.ones((rows, D), bool) if passed is None else np.array(passed))


@st.composite
def _term_set_blocks(draw):
    """Blocks with distinct row keys, as a sweep makes them: rows of one id
    spread over blocks of that id, each row's norms in report order."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([7, 2, 2 ** 64 - 1]),
                                   st.sampled_from([2.0, 3.0, -0.0])), max_size=10,
                         unique_by=lambda key: (key[0], key[1], key[2] + 0.0)))
    parts = {}
    for key in keys:
        parts.setdefault((key[0], draw(st.integers(0, 2))), []).append(key)
    blocks = []
    for (block_id, _), rows in parts.items():
        tokens = draw(st.lists(st.sampled_from(_SORT_TOKENS), min_size=1, max_size=5))
        norms = [spec.to_record() for spec in order_norms([NormSpec.parse(tok) for tok in tokens])]
        block = _grid(block_id, [seed for _, seed, _ in rows], [(s, 1.0) for _, _, s in rows],
                      ("s", "r"), ["trace"] * len(norms), kind=draw(st.sampled_from(["chain", "lemma"])))
        block.norms = norms
        blocks.append(block)
    return blocks


class TestBlockSort:
    """`build_report_set` sorts the rows of every block by one `np.lexsort`,
    and must put every record where a sort of all records by
    `record_sort_key` puts it."""

    @staticmethod
    def _assert_record_order(blocks):
        records = [rec for block in blocks for rec in block.records]
        got = build_report_set(blocks).records
        assert [id(rec) for rec in got] == [id(rec) for rec in sorted(records, key=record_sort_key)]

    @settings(max_examples=200, deadline=None)
    @given(_term_set_blocks())
    def test_equals_record_sort(self, blocks):
        self._assert_record_order(blocks)

    def test_repeated_key_raises(self):
        """Two rows with one key, from a grid that repeats a point or from
        one block given twice, are refused: a validated sweep never makes
        them.  0.0 and -0.0 are one key, as in a sort of records."""
        inst = generate_instance("generic", 2, 2, 60)
        grid = [ChainParams(s=3.0), ChainParams(s=2.0), ChainParams(s=3.0)]
        norms = expand_norm_tokens(["trace", "kyfan:2"], 4)
        build_report_set([chain_block(grid_terms(inst.spectra, "main", grid[:2]), 2, 2,
                                      [inst.seed], grid[:2], norms)])
        block = chain_block(grid_terms(inst.spectra, "main", grid), 2, 2, [inst.seed], grid, norms)
        one = chain_block(grid_terms(inst.spectra, "main", grid[:1]), 2, 2, [inst.seed], grid[:1],
                          norms)
        signed = [_grid(seeds=[1], params=[[0.0]]), _grid(seeds=[1], params=[[-0.0]])]
        for repeated in ([block], [one, one], signed):
            with pytest.raises(ValueError, match="two term sets have the key"):
                build_report_set(repeated)

    def test_builders_order_a_term_set_themselves(self):
        """A row's norms are taken as built, so each record builder puts
        them in report order, whatever order it is given."""
        tokens = ["trace", "schatten:inf", "kyfan:2", "operator", "schatten:2", "kyfan:1"]
        inst = generate_instance("generic", 2, 2, 61)
        grid = [ChainParams(s=1.5, t=0.3)]
        terms = grid_terms(inst.spectra, "t-chain", grid)
        self._assert_record_order([chain_block(terms, 2, 2, [inst.seed], grid,
                                               expand_norm_tokens(tokens, terms.max_dim))])
        case = random_case("Araki", 62, n=2, m=2)
        lterms = lemma_terms(case)
        self._assert_record_order([lemma_block(case, lterms, [62], 2, [2],
                                               expand_norm_tokens(tokens, lterms.max_dim))])


_EVERY_NORM = ["kyfan:all", "schatten:1", "schatten:2.5", "schatten:inf", "trace", "operator",
               "frobenius"]
COLUMNAR_CONFIGS = {
    "every-chain": dict(chains=list(KNOWN_CHAINS), n_values=[1, 2, 3], m_values=[1, 2],
                        instance_count=6, base_seed=5, s_values=[1.0, 1.5, 2.0, 3.0],
                        r_values=[1.0, 2.0], p_values=[0.5, 1.0], t_values=[0.3, 0.5],
                        norms=_EVERY_NORM),
    # every instance but the 1x1 scalars (condition number 1) is gated
    "gated": dict(chains=list(KNOWN_CHAINS), n_values=[1, 2], m_values=[1, 2], instance_count=4,
                  base_seed=6, s_values=[1.5, 2.0], t_values=[0.5], norms=_EVERY_NORM,
                  condition_cap=1.0 + 1e-9),
    # with no tolerance, rounding fails some conjectured scalar equalities
    "conjectured-failures": dict(chains=["t-chain", "commuting", "main", "lemmas"], n_values=[1],
                                 m_values=[1], instance_count=20, base_seed=3,
                                 s_values=[1.5, 2.5], t_values=[0.3, 0.5], tol_rel=0.0,
                                 norms=_EVERY_NORM),
}


def _assert_same(got: list, want: list):
    """got == want, naming the first item that differs: pytest takes
    minutes to diff a whole report file's text or records."""
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    sizes = len(got), len(want)
    assert sizes == (first, first), (first, sizes, got[first:first + 1], want[first:first + 1])


def _lines(text: str) -> list:
    return text.splitlines(keepends=True)


def _assert_grid_report(rs, path):
    """A report set of grid blocks against its records: the file is each
    record then the summary, as `dumps` writes them, and reads back to
    them; the summary is `summarize` of the records, the records are in
    `record_sort_key` order, and `has_proven_failure` agrees with a scan of
    them.  No record dict is built before `records` is read."""
    assert all(isinstance(b, Block) and "records" not in vars(b) for b in rs.blocks)
    failing = has_proven_failure(rs)
    write_reports(rs, path)
    assert all("records" not in vars(b) for b in rs.blocks)
    text = path.read_text(encoding="utf-8")
    _assert_same(_lines(text), [dumps(r) + "\n" for r in [*rs.records, rs.summary]])
    back = read_reports(path)
    _assert_same(back.records, rs.records)
    assert back.summary == rs.summary
    assert summarize(rs.records) == rs.summary
    _assert_same(rs.records, sorted(rs.records, key=record_sort_key))
    assert failing == any(not r["gated"] and r["status"] == "proven" and not r["pass"]
                          for r in rs.records)


class TestColumnarReports:
    """A sweep's report set holds grid `Block`s: the writer, the summary and
    the exit code read their arrays, and no record dict is built until
    `records` is read.  Its bytes, records and summary must be those of its
    records written, read and summarized one by one."""

    @pytest.mark.parametrize("name", list(COLUMNAR_CONFIGS))
    def test_blocks_equal_their_records(self, name, tmp_path):
        rs = run_sweep(SweepConfig(**COLUMNAR_CONFIGS[name]))
        path, by_records = tmp_path / "blocks.jsonl", tmp_path / "records.jsonl"
        _assert_grid_report(rs, path)
        text = path.read_text(encoding="utf-8")
        _assert_same(_lines(text), [oracle_dumps(v) + "\n" for v in [*rs.records, rs.summary]])
        write_reports(ReportSet(records=rs.records, summary=rs.summary), by_records)
        _assert_same(_lines(by_records.read_text(encoding="utf-8")), _lines(text))
        groups = rs.summary["groups"]
        assert {row["chain"] for row in groups} >= {"main", "t-chain", "commuting-product"}
        if name == "gated":
            assert sum(row["gated_count"] for row in groups) > 0
            assert sum(row["pass_count"] for row in groups) > 0
        if name == "conjectured-failures":
            assert rs.summary["candidates"] > 0

    @settings(max_examples=20, deadline=None)
    @given(chains=st.lists(st.sampled_from(KNOWN_CHAINS), min_size=1, unique=True),
           n_values=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
           m_values=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
           per_shape=st.integers(1, 2), generator=st.sampled_from(["generic", "commuting"]),
           condition_cap=st.sampled_from([1e8, 30.0, 1.0 + 1e-9]),
           norms=st.lists(st.sampled_from(["schatten:1", "schatten:2.5", "schatten:inf", "trace",
                                           "operator"]), max_size=3, unique=True),
           base_seed=st.integers(0, 2 ** 64 - 1))
    def test_grid_report_properties(self, chains, n_values, m_values, per_shape, generator,
                                    condition_cap, norms, base_seed):
        """Small sweeps of every chain, lemmas and commuting included, with
        some rows gated by a low condition cap and `kyfan:all` among other
        norms, keep every property of `_assert_grid_report`."""
        cfg = SweepConfig(chains=chains, n_values=n_values, m_values=m_values,
                          instance_count=per_shape * len(n_values) * len(m_values),
                          base_seed=base_seed, generator=generator, s_values=[1.5, 2.0],
                          r_values=[1.0, 0.5], t_values=[0.3], condition_cap=condition_cap,
                          norms=["kyfan:all", *norms])
        with tempfile.TemporaryDirectory() as folder:
            _assert_grid_report(run_sweep(cfg), pathlib.Path(folder) / "r.jsonl")

    def test_signed_zero_and_infinite_condition_keep_their_text(self, tmp_path):
        """A planted -0.0 margin and an infinite condition number are
        written as a record dict writes them, and read back to the records."""
        block = _grid(seeds=[5, 4], params=[[2.0], [3.0]], norms=["operator", "trace"],
                      margins=[[[-0.0], [0.0]], [[0.0], [-0.0]]],
                      condition_max=[math.inf, 2.0], gated=[True, False])
        rs = build_report_set([block])
        _assert_grid_report(rs, tmp_path / "r.jsonl")
        lines = (tmp_path / "r.jsonl").read_text(encoding="utf-8").splitlines()
        assert '"margins":[0.0]' in lines[0] and '"margins":[-0.0]' in lines[1]
        assert '"margins":[-0.0]' in lines[2] and '"condition_max":"inf"' in lines[2]
        assert rs.records[2]["condition_max"] == "inf"

    def test_records_are_not_read_from_the_writer(self, monkeypatch):
        """`Block.records` zips the arrays into dicts without the writer's
        templates, so a file compared with the records tests the writer."""
        rs = run_sweep(SweepConfig(**COLUMNAR_CONFIGS["every-chain"]))
        monkeypatch.setattr(Block, "lines", None)
        assert len(rs.records) == rs.summary["total_records"] > 0

    def test_blocks_without_an_order_keep_block_order(self, tmp_path):
        """A report set given blocks and no order holds every row, in
        block order, and writes them all."""
        blocks = [_grid(seeds=[5, 4], params=[[2.0], [3.0]], norms=["operator", "trace"]),
                  _grid("b", seeds=[1], kind="lemma")]
        rs = ReportSet(blocks=blocks, summary=summarize([]))
        assert rs.records == [*blocks[0].records, *blocks[1].records]
        assert [rec["instance_seed"] for rec in rs.records] == [5, 5, 4, 4, 1]
        write_reports(rs, tmp_path / "r.jsonl")
        assert read_reports(tmp_path / "r.jsonl").records == rs.records

    def test_no_encoding_carried_between_writes(self, tmp_path, monkeypatch):
        """Each write formats its floats afresh: no memo or text outlives a
        call, so repeated writes of one report set do the same work."""
        rs = run_sweep(SweepConfig(**COLUMNAR_CONFIGS["every-chain"]))
        calls = []
        original = reports._float_text
        monkeypatch.setattr(reports, "_float_text",
                            lambda v, memo: calls.append(v) or original(v, memo))
        counts = []
        for _ in range(3):
            calls.clear()
            write_reports(rs, tmp_path / "r.jsonl")
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] > 0

    def test_summary_keeps_the_first_of_equal_minima(self):
        """0.0 and -0.0 compare equal: a group's minimum margin is the
        first in report order, across records, within one and across rows
        that a block holds in another order, from blocks or from record
        dicts."""
        for margins in ([[[0.0], [-0.0]]], [[[-0.0], [0.0]]], [[[0.0, -0.0]]],
                        [[[-0.0, 0.0], [0.0, 0.0]]], [[[-0.0]], [[0.0]]], [[[0.0]], [[-0.0]]]):
            rows, D = len(margins), len(margins[0])
            # the rows are built in the reverse of their report order
            rs = build_report_set([_grid(seeds=range(rows, 0, -1), params=[[2.0]] * rows,
                                         norms=["trace"] * D, margins=margins)])
            first = margins[-1][0][0]
            for summary in (rs.summary, summarize(rs.records)):
                mm, = (row["min_margin"] for row in summary["groups"])
                assert math.copysign(1.0, mm) == math.copysign(1.0, first), margins

    def test_proven_failure_read_from_blocks(self):
        """A failing non-gated proven record, and only such a record, makes
        a proven failure, read from the block without building its dicts."""
        def block(passes, seed, gated=False, status="proven"):
            return _grid(seeds=[seed], norms=["operator", "trace"], margins=[[[1.0], [-1.0]]],
                         passed=[passes], gated=[gated], status=status)

        ok, failing = block([True, True], 1), block([True, False], 2)
        assert not has_proven_failure(build_report_set([ok]))
        assert has_proven_failure(build_report_set([ok, failing]))
        assert "records" not in vars(failing)
        assert not has_proven_failure(build_report_set([ok, block([True, False], 3, gated=True)]))
        assert not has_proven_failure(
            build_report_set([block([False, False], 4, status="conjectured")]))
        assert has_proven_failure(ReportSet(records=failing.records))
        assert not has_proven_failure(ReportSet(records=ok.records))


class TestReader:
    def test_blank_lines_are_skipped_and_summary_taken(self, tmp_path):
        recs = [_record(chain_id="main", instance_seed=i, margins=[0.5 * i]) for i in range(3)]
        summary = summarize([])
        lines = [json.dumps(recs[0]), "", "  ", json.dumps(recs[1]), json.dumps(summary),
                 json.dumps(recs[2]), "\t"]
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rs = read_reports(path)
        assert rs.records == recs
        assert rs.summary == summary

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n \n", encoding="utf-8")
        rs = read_reports(path)
        assert rs.records == [] and rs.summary == summarize([])

    def test_records_without_summary_raise(self, tmp_path):
        """A report set whose summary line was lost (the golden sweep cut
        before its last line) raises MalformedRecord naming the file; a
        summary record alone is still a report of no records."""
        golden = pathlib.Path(__file__).with_name("golden") / "sweep_n3_m3.jsonl"
        lines = golden.read_text(encoding="utf-8").splitlines(keepends=True)
        path = tmp_path / "cut.jsonl"
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(errors.MalformedRecord, match=re.escape(f"{path}: 144 records and no")):
            read_reports(path)
        path.write_text(json.dumps(summarize([])) + "\n", encoding="utf-8")
        rs = read_reports(path)
        assert rs.records == [] and rs.summary == summarize([])

    def test_version_checked_on_every_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        lines = [_record(instance_seed=0), _record(instance_seed=1, version=SCHEMA_VERSION + 1)]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        with pytest.raises(errors.SchemaVersionMismatch):
            read_reports(path)

    @pytest.mark.parametrize("bad", [
        ['{"schema_version": 1,'],                                         # cut short
        ['{"schema_version": 1, "kind": "chain"},{"schema_version": 1}'],  # two on a line
        ['{"schema_version": 1, "margins": [1', '2]}'],                    # one on two lines
    ])
    def test_a_line_that_is_not_one_value_raises(self, tmp_path, bad):
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join([json.dumps(_record()), *bad]) + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_reports(path)


class TestAllGatedHunt:
    # A 1 x 1 instance and its sums have condition number 1, so no law gates
    # a sample with n = 1.  Base seed 9 is the smallest >= 7 whose four
    # samples all have n >= 2, and this law of condition 1e18 puts each of
    # them over the 1e8 cap.
    CFG = dict(base_seed=9, samples=4, n_max=4, m_max=2, spectrum_law=SpectrumLaw(1e-9, 1e9))

    def test_written_read_back_and_reevaluated(self, tmp_path):
        cfg = SearchConfig(**self.CFG)
        assert (_sample_points(cfg, range(cfg.samples))["n"] >= 2).all()
        result = hunt(cfg)
        assert result.argmin is None and result.gated_count == 4
        path = tmp_path / "hunt.json"
        write_reports(result, path)
        loaded = read_reports(path)
        assert isinstance(loaded, SearchResult)
        assert loaded.to_record() == result.to_record()
        assert evaluate_argmin(loaded) is None


def test_search_result_fields_are_written():
    """Every field of SearchResult is a field of its file, declared in file
    order (the golden hunt result pins that order), and a result holds
    nothing else: its record is schema_version, kind and these fields."""
    names = [f.name for f in dataclasses.fields(SearchResult)]
    assert names == list(RESULT_FIELDS)
    record = hunt(SearchConfig(base_seed=3, samples=5)).to_record()
    assert list(record) == ["schema_version", "kind", *RESULT_FIELDS]
