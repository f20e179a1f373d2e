"""Batched folds: ``StreamingHistogram.observe_many`` leaves the state an
``observe`` loop leaves, and ``MetricsSink.emit_spans`` the registry a
per-record ``emit`` loop leaves."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricRegistry, MetricsSink
from repro.metrics.histogram import StreamingHistogram
from repro.telemetry import JsonlSink, MemorySink, SpanBatch

V0 = 1e-9

_EDGES = [
    0.0, -0.0, 5e-324, sys.float_info.min, V0, math.nextafter(V0, 0.0),
    math.nextafter(V0, 1.0), 1.1e-9, 1.0, 1e300, sys.float_info.max,
]

_VALID = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, allow_infinity=False),
)

_BAD = st.sampled_from([-1.0, -5e-324, -math.inf, math.inf, math.nan, None])


def _state(h):
    return (
        h.count,
        repr(h.total),
        repr(h._min),
        repr(h._max),
        h._underflow,
        dict(h._buckets),
    )


def _loop(h, values):
    for v in values:
        h.observe(v)


def _outcome(fn, h, values):
    """``fn(h, values)``'s error (type and message, None if it
    returned) and the state it left ``h`` in."""
    try:
        fn(h, values)
        err = None
    except (ValueError, TypeError, OverflowError) as exc:
        err = (type(exc), str(exc))
    return err, _state(h)


def _many(h, values):
    h.observe_many(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALID, max_size=40), st.lists(_VALID, max_size=5))
def test_observe_many_matches_observe_loop(values, before):
    """Also where the loop raises: ``observe`` cannot bucket a finite
    value above ~1.8e299 (``value / v0`` overflows)."""
    a, b = StreamingHistogram(), StreamingHistogram()
    _outcome(_loop, a, before)
    _outcome(_loop, b, before)
    assert _outcome(_many, b, values) == _outcome(_loop, a, values)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALID, max_size=20), _BAD, st.lists(_VALID, max_size=20))
def test_mid_batch_error_leaves_loop_state(head, bad, tail):
    values = [*head, bad, *tail]
    a, b = StreamingHistogram(), StreamingHistogram()
    loop = _outcome(_loop, a, values)
    assert loop[0] is not None
    assert _outcome(_many, b, values) == loop


def test_observe_many_at_and_below_v0():
    h = StreamingHistogram(v0=V0)
    h.observe_many([V0, math.nextafter(V0, 0.0), 0.0, 1e-3])
    assert h._underflow == 2
    assert sum(h._buckets.values()) == 2
    assert 0 in h._buckets


def test_observe_many_overflowing_sum_matches_loop():
    values = [sys.float_info.max, sys.float_info.max, 1.0]
    a, b = StreamingHistogram(v0=1.0), StreamingHistogram(v0=1.0)
    _loop(a, values)
    b.observe_many(iter(values))
    assert _state(a) == _state(b)
    assert a.total == math.inf


# --------------------------------------------------------------- the sink
_SPAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, V0, 1e200]),
    st.floats(min_value=-10.0, max_value=1e6),
)


@st.composite
def batches(draw):
    key = draw(st.sampled_from(["energy_j", "value"]))
    batch = SpanBatch(1, "proxy", key)
    batch.rows.extend(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["phase.md", "phase.analysis", "insitu.sync"]),
                    st.floats(min_value=0.0, max_value=1e3),
                    _SPAN_VALUES,
                    st.integers(0, 8),
                    st.one_of(_SPAN_VALUES, st.none()),
                ),
                max_size=30,
            )
        )
    )
    return batch


def _report(reg):
    return json.dumps(reg.report().to_json(), sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(batches(), max_size=4))
def test_metrics_sink_batch_fold_matches_record_fold(batch_list):
    per_record, batched = MetricRegistry(), MetricRegistry()
    fwd_rec, fwd_batch = MemorySink(), MemorySink()
    rec_sink = MetricsSink(per_record, forward=fwd_rec)
    batch_sink = MetricsSink(batched, forward=fwd_batch)
    for batch in batch_list:
        for record in batch.records():
            rec_sink.emit(record)
        batch_sink.emit_spans(batch)
    assert _report(batched) == _report(per_record)
    assert fwd_batch.records == fwd_rec.records


def _fold(sink, fn):
    """``fn(sink)``'s error (type and message, None if it returned)."""
    try:
        fn(sink)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


#: durations / energies ``MetricsSink.emit`` cannot fold: ``observe``
#: refuses NaN and inf, ``max`` a string, and 1e300 / v0 overflows
_BAD_SPAN_VALUES = st.sampled_from([math.nan, math.inf, "x", 1e300])


@settings(max_examples=200, deadline=None)
@given(batches(), st.data())
def test_metrics_sink_invalid_batch_matches_record_fold(batch, data):
    """A value the fold refuses mid-batch: the records before it are
    folded and forwarded and the same error is raised, as in the
    per-record loop."""
    at = data.draw(st.integers(0, len(batch.rows)))
    bad = data.draw(_BAD_SPAN_VALUES)
    if data.draw(st.booleans()):
        row = ("phase.md", 1.0, bad, 0, 1.0)
    else:
        batch.key = "energy_j"
        row = ("insitu.sync", 1.0, 0.5, 0, bad)
    batch.rows.insert(at, row)

    per_record, batched = MetricRegistry(), MetricRegistry()
    fwd_rec, fwd_batch = MemorySink(), MemorySink()
    rec_sink = MetricsSink(per_record, forward=fwd_rec)
    batch_sink = MetricsSink(batched, forward=fwd_batch)

    def loop(sink):
        for record in batch.records():
            sink.emit(record)

    err = _fold(rec_sink, loop)
    assert err is not None
    assert _fold(batch_sink, lambda sink: sink.emit_spans(batch)) == err
    assert _report(batched) == _report(per_record)
    assert fwd_batch.records == fwd_rec.records


def test_nan_energy_mid_batch_reaches_the_trace_file_as_per_record(tmp_path):
    batch = SpanBatch(3, "proxy", "energy_j")
    batch.rows.extend(
        [
            ("phase.md", 0.0, 1.0, 0, 2.0),
            ("phase.analysis", 0.0, 0.5, 1, 1.0),
            ("phase.md", 1.0, 1.0, 1, math.nan),
            ("insitu.sync", 1.5, 0.25, 0, 0.5),
        ]
    )
    outcomes = []
    for variant in ("per-record", "batched"):
        reg = MetricRegistry()
        path = tmp_path / f"{variant}.jsonl"
        sink = MetricsSink(reg, forward=JsonlSink(path))
        with pytest.raises(ValueError, match="finite"):
            if variant == "batched":
                sink.emit_spans(batch)
            else:
                for record in batch.records():
                    sink.emit(record)
        sink.close()
        outcomes.append((path.read_bytes(), _report(reg)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].count(b"\n") == 2  # the two records before the NaN
