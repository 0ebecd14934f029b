"""The report encoder and reader against their per-value and per-line
forms.

`oracle_dumps` is a plain recursive encoder: one call per value,
`isinstance` dispatch, every key and float formatted afresh.
`reports.dumps`, which tests exact types first and remembers keys and
floats, must write exactly its bytes, raise where it raises, and do so
through `write_reports`, which encodes a whole file with one memo and one
join.  The drawn values include subclasses (of str, int, float, dict and
list) so that the encoder's `isinstance` path is pinned too.
"""

import enum
import json
import math
import pathlib
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
from gmineq.reports import (SCHEMA_VERSION, Block, ReportSet, build_report_set, chain_blocks,
                            dumps, lemma_records, order_norms, read_reports, record_sort_key,
                            summarize, write_reports)
from gmineq.sweep import KNOWN_CHAINS, SweepConfig, has_proven_failure, run_sweep


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
        # more distinct floats and keys than the memo holds, each repeated
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


@st.composite
def _term_set_blocks(draw):
    """Blocks with distinct keys, as a sweep makes them: each a term set's
    `Block` over an ordered norm list with repeated norms, or a lone record."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([7, 2]),
                                   st.sampled_from([2.0, 3.0])), max_size=8, unique=True))
    blocks = []
    for name, seed, s in keys:
        head = {draw(st.sampled_from(["chain_id", "lemma_id"])): name, "instance_seed": seed,
                "params": {"s": s, "r": 1.0}}
        tokens = draw(st.lists(st.sampled_from(_SORT_TOKENS), min_size=1, max_size=5))
        norms = [spec.to_record() for spec in order_norms([NormSpec.parse(tok) for tok in tokens])]
        block = Block(head, {"norm": norms, "margins": [[0.0]] * len(norms),
                             "pass": [True] * len(norms)}, {"gated": False})
        blocks.append(block if len(norms) > 1 or draw(st.booleans()) else block.records[0])
    return blocks


class TestBlockSort:
    """`build_report_set` sorts blocks, not records, and must put every
    record where a sort of all records by `record_sort_key` puts it."""

    @staticmethod
    def _assert_record_order(blocks):
        records = [rec for block in blocks
                   for rec in ([block] if isinstance(block, dict) else block.records)]
        got = build_report_set(blocks).records
        assert [id(rec) for rec in got] == [id(rec) for rec in sorted(records, key=record_sort_key)]

    @settings(max_examples=200, deadline=None)
    @given(_term_set_blocks())
    def test_equals_record_sort(self, blocks):
        self._assert_record_order(blocks)

    def test_repeated_key_raises(self):
        """Two blocks with one key, from a grid that repeats a point or
        from a term set split into its records, are refused: a validated
        sweep never makes them."""
        inst = generate_instance("generic", 2, 2, 60)
        grid = [ChainParams(s=3.0), ChainParams(s=2.0), ChainParams(s=3.0)]
        terms = grid_terms(inst.spectra, "main", grid)
        blocks = chain_blocks(terms, 2, 2, [inst.seed], grid,
                              expand_norm_tokens(["trace", "kyfan:2"], 4))
        build_report_set(blocks[:2])
        for repeated in (blocks, blocks[:1] + blocks[:1], blocks[0].records):
            with pytest.raises(ValueError, match="two blocks have the key"):
                build_report_set(repeated)

    def test_builders_order_a_term_set_themselves(self):
        """A key's lone block is taken as built, so each record builder
        puts its norms in report order, whatever order it is given."""
        tokens = ["trace", "schatten:inf", "kyfan:2", "operator", "schatten:2", "kyfan:1"]
        inst = generate_instance("generic", 2, 2, 61)
        grid = [ChainParams(s=1.5, t=0.3)]
        terms = grid_terms(inst.spectra, "t-chain", grid)
        self._assert_record_order(chain_blocks(terms, 2, 2, [inst.seed], grid,
                                               expand_norm_tokens(tokens, terms.max_dim)))
        case = random_case("Araki", 62, n=2, m=2)
        lterms = lemma_terms(case)
        self._assert_record_order([lemma_records(case, lterms, 62, 2, 2,
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


class TestColumnarReports:
    """A sweep's report set holds `Block`s: the writer, the summary and the
    exit code read them, and no record dict is built until `records` is
    read.  Its bytes, records and summary must be those of its records
    written, read and summarized one by one."""

    @pytest.mark.parametrize("name", list(COLUMNAR_CONFIGS))
    def test_blocks_equal_their_records(self, name, tmp_path):
        rs = run_sweep(SweepConfig(**COLUMNAR_CONFIGS[name]))
        path, by_records = tmp_path / "blocks.jsonl", tmp_path / "records.jsonl"
        has_proven_failure(rs)
        write_reports(rs, path)
        assert all(isinstance(b, Block) and "records" not in vars(b) for b in rs.blocks)
        text = path.read_text(encoding="utf-8")
        assert text == "".join(oracle_dumps(v) + "\n" for v in [*rs.records, rs.summary])
        write_reports(ReportSet(records=rs.records, summary=rs.summary), by_records)
        assert by_records.read_text(encoding="utf-8") == text
        back = read_reports(path)
        assert rs.records == back.records and back.summary == rs.summary
        assert rs.summary == summarize(rs.records)
        groups = rs.summary["groups"]
        assert {row["chain"] for row in groups} >= {"main", "t-chain", "commuting-product"}
        if name == "gated":
            assert sum(row["gated_count"] for row in groups) > 0
            assert sum(row["pass_count"] for row in groups) > 0
        if name == "conjectured-failures":
            assert rs.summary["candidates"] > 0

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
        first in report order, across records and within one, from blocks
        or from record dicts."""
        head = {"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": "main",
                "instance_seed": 1, "n": 1, "m": 1, "params": {}}
        for margins in ([[0.0], [-0.0]], [[-0.0], [0.0]], [[0.0, -0.0]], [[-0.0, 0.0], [0.0]]):
            block = Block(head, {"norm": [{"variant": "trace"}] * len(margins),
                                 "margins": margins, "pass": [True] * len(margins)},
                          {"gated": False, "status": "proven"})
            for summary in (summarize([block]), summarize(block.records)):
                mm, = (row["min_margin"] for row in summary["groups"])
                assert math.copysign(1.0, mm) == math.copysign(1.0, margins[0][0]), margins

    def test_proven_failure_read_from_blocks(self):
        """A failing non-gated proven record, and only such a record, makes
        a proven failure, read from the block without building its dicts."""
        def block(passes, seed, gated=False, status="proven"):
            head = {"schema_version": SCHEMA_VERSION, "kind": "chain", "chain_id": "main",
                    "instance_seed": seed, "n": 1, "m": 1, "params": {"s": 2.0}}
            return Block(head, {"norm": [{"variant": "trace"}, {"variant": "operator"}],
                                "margins": [[1.0], [-1.0]], "pass": passes},
                         {"gated": gated, "status": status})

        ok, failing = block([True, True], 1), block([True, False], 2)
        assert not has_proven_failure(ReportSet(blocks=[ok]))
        assert has_proven_failure(ReportSet(blocks=[ok, failing]))
        assert "records" not in vars(failing)
        assert not has_proven_failure(ReportSet(blocks=[ok, block([True, False], 3, gated=True)]))
        assert not has_proven_failure(
            ReportSet(blocks=[block([False, False], 4, status="conjectured")]))
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
