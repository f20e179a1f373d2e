"""Columnar span batches: ``SpanBatch.records`` builds the dicts the
per-record helpers build, and ``JsonlSink.emit_spans`` writes the bytes
``json.dumps(record, sort_keys=True)`` writes, record by record."""

import json
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import JsonlSink, MemorySink, SpanBatch, Tracer

#: strings that stress the escaper: quotes, backslashes, control
#: characters, ``%`` (the template's own escape), non-ASCII and astral
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "%", "{", "}"]),
        st.characters(min_codepoint=0x80, max_codepoint=0x10FFFF),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    ),
    max_size=8,
)

_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 1e300,
    -1e300, sys.float_info.max, math.nan, math.inf, -math.inf,
]

_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False),
)

_FINITE = st.one_of(
    st.sampled_from([x for x in _EDGE_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 300))


def _rows(values):
    return st.lists(
        st.tuples(
            st.one_of(st.sampled_from(["phase.md", "insitu.sync"]), _TEXT),
            values,
            values,
            _INTS,
            values,
        ),
        min_size=0,
        max_size=12,
    )


@st.composite
def batches(draw, values=_FLOATS):
    batch = SpanBatch(draw(_INTS), draw(_TEXT), draw(_TEXT))
    batch.rows.extend(draw(_rows(values)))
    return batch


def _dumps(batch):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in batch.records())


def _write(path, batch, flush_every=64):
    sink = JsonlSink(path, flush_every=flush_every)
    sink.emit_spans(batch)
    sink.close()
    return path.read_text()


@settings(max_examples=300, deadline=None)
@given(batches())
def test_jsonl_batch_bytes_match_json_dumps(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("b") / "t.jsonl"
    assert _write(path, batch) == _dumps(batch)


@settings(max_examples=150, deadline=None)
@given(batches(values=_FINITE))
def test_jsonl_batch_bytes_match_json_dumps_finite(tmp_path_factory, batch):
    """The template path proper: every value finite, no fallback."""
    path = tmp_path_factory.mktemp("b") / "t.jsonl"
    assert _write(path, batch) == _dumps(batch)


@settings(max_examples=60, deadline=None)
@given(batches(values=st.one_of(_FINITE, _INTS)))
def test_jsonl_batch_with_int_values_matches_json_dumps(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("b") / "t.jsonl"
    assert _write(path, batch) == _dumps(batch)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(batches(), st.integers(0, 5)), max_size=6))
def test_batches_and_records_keep_file_order(tmp_path_factory, items):
    """Per-record ``emit`` calls and batches interleave in call order."""
    path = tmp_path_factory.mktemp("b") / "t.jsonl"
    sink = JsonlSink(path, flush_every=3)
    expected = []
    for item in items:
        if isinstance(item, SpanBatch):
            sink.emit_spans(item)
            expected.append(_dumps(item))
        else:
            record = {"ph": "i", "name": f"e{item}", "ts": float(item)}
            sink.emit(record)
            expected.append(json.dumps(record, sort_keys=True) + "\n")
    sink.close()
    assert path.read_text() == "".join(expected)


def test_batch_is_on_disk_once_flush_every_is_pending(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, flush_every=8)
    sink.emit({"ph": "i", "name": "first", "ts": 0.0})
    batch = SpanBatch(1, "proxy", "energy_j")
    batch.rows.extend(("phase.md", 0.5 * i, 1.0, i, 2.0) for i in range(10))
    sink.emit_spans(batch)
    # a second reader, without close(): the whole batch is visible
    with open(path) as reader:
        lines = reader.read().splitlines()
    assert len(lines) == 11
    assert [json.loads(line) for line in lines[1:]] == list(batch.records())
    sink.close()


def test_closed_jsonl_sink_drops_batches(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.close()
    batch = SpanBatch(1, "proxy", "energy_j")
    batch.rows.append(("phase.md", 0.0, 1.0, 1, 2.0))
    sink.emit_spans(batch)
    assert path.read_text() == ""


def test_records_match_complete_span_dicts():
    """``records()`` builds what ``Tracer.complete`` builds, key order
    included."""
    batch = SpanBatch(3, "proxy", "energy_j")
    batch.rows.extend([("phase.md", 1.0, 0.5, 1, 7.0), ("insitu.sync", 1.5, 0.25, 1, 2.0)])
    ref = MemorySink()
    tracer = Tracer(ref)
    for name, ts, dur, tid, value in batch.rows:
        tracer.complete(name, dur, cat="proxy", tid=tid, ts=ts, pid=3, energy_j=value)
    got = list(batch.records())
    assert got == ref.records
    assert [list(r) for r in got] == [list(r) for r in ref.records]


def test_memory_sink_takes_batch_whole():
    sink = MemorySink()
    sink.emit({"ph": "i", "name": "x", "ts": 0.0})
    batch = SpanBatch(1, "proxy", "energy_j")
    batch.rows.append(("phase.md", 0.0, 1.0, 1, 2.0))
    Tracer(sink).emit_many(batch)
    assert sink.records[1:] == list(batch.records())
