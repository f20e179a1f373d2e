"""Unit tests for the tracer core, sinks, and Chrome export."""

import json

import pytest

from repro.telemetry import (
    NULL_TRACER,
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    Tracer,
    get_tracer,
    summarize,
    to_chrome_events,
    use_tracer,
    validate_spans,
)


def test_default_tracer_is_null_and_disabled():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled


def test_use_tracer_installs_and_restores():
    t = Tracer(MemorySink())
    with use_tracer(t):
        assert get_tracer() is t
        assert get_tracer().enabled
    assert get_tracer() is NULL_TRACER


def test_null_tracer_is_inert():
    t = NULL_TRACER
    with t.span("a"):
        t.instant("x")
    h = t.begin("b")
    h.end()
    t.complete("d", 1.0)


def test_tracer_has_no_counter_channel():
    # a count is the number of records carrying a fact; the tracer has
    # no second, sampled channel for it
    import repro.telemetry as telemetry

    for name in ("Counter", "Gauge"):
        assert not hasattr(telemetry, name)
    for obj in (Tracer(MemorySink()), NULL_TRACER):
        for attr in ("counter", "gauge", "_emit_counter"):
            assert not hasattr(obj, attr)


def test_span_nesting_and_balance():
    sink = MemorySink()
    t = Tracer(sink)
    with t.span("outer", cat="test", tid=1):
        with t.span("inner", cat="test", tid=1):
            pass
    assert validate_spans(sink.records) == []
    phs = [r["ph"] for r in sink.records]
    names = [r["name"] for r in sink.records]
    assert phs == ["B", "B", "E", "E"]
    assert names == ["outer", "inner", "inner", "outer"]


def test_span_end_is_idempotent():
    sink = MemorySink()
    t = Tracer(sink)
    h = t.begin("a")
    h.end()
    h.end()
    t.end(h)
    assert [r["ph"] for r in sink.records] == ["B", "E"]


def test_bind_clock_switches_timestamps_and_pid():
    sink = MemorySink()
    t = Tracer(sink)
    assert t.pid == 0
    pid = t.bind_clock(lambda: 42.0, label="run-a")
    assert pid == 1 and t.pid == 1
    t.instant("x")
    rec = sink.records[-1]
    assert rec["ts"] == 42.0 and rec["pid"] == 1
    # a second binding starts a new trace process
    assert t.bind_clock(lambda: 0.0) == 2


def test_explicit_ts_override():
    sink = MemorySink()
    t = Tracer(sink)
    t.instant("x", ts=1.25)
    t.complete("y", 0.5, ts=2.0)
    assert sink.records[0]["ts"] == 1.25
    assert sink.records[1]["ts"] == 2.0
    assert sink.records[1]["dur"] == 0.5


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    t = Tracer(sink)
    t.instant("x", cat="c", tid=3, foo=1)
    t.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["name"] == "x"
    assert lines[0]["args"] == {"foo": 1}


def test_chrome_export_shape(tmp_path):
    sink = ChromeTraceSink()
    t = Tracer(sink)
    t.name_thread(1, "rank 0")
    with t.span("outer", cat="insitu", tid=1):
        t.instant("ping", cat="core", tid=1)
        t.complete("phase.force", 0.25, cat="power", tid=1, energy_j=30.0)
    out = sink.write(tmp_path / "trace.json")
    doc = json.loads(out.read_text())
    evs = doc["traceEvents"]
    assert isinstance(evs, list) and evs
    by_ph = {e["ph"] for e in evs}
    assert by_ph == {"M", "B", "E", "i", "X"}
    x = next(e for e in evs if e["ph"] == "X")
    assert x["dur"] == pytest.approx(0.25e6)  # microseconds
    assert x["args"]["energy_j"] == 30.0
    inst = next(e for e in evs if e["ph"] == "i")
    assert inst["s"] == "t"
    for e in evs:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(e)


def test_to_chrome_events_defaults_category():
    evs = to_chrome_events(
        [{"ph": "i", "name": "x", "cat": "", "ts": 0.0, "pid": 0, "tid": 0}]
    )
    assert evs[0]["cat"] == "default"


def test_validate_spans_flags_unbalanced_and_misnested():
    # never-ended span
    assert validate_spans(
        [{"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 0}]
    )
    # end with no begin
    assert validate_spans(
        [{"ph": "E", "name": "a", "ts": 0.0, "pid": 0, "tid": 0}]
    )
    # wrong closing order
    assert validate_spans(
        [
            {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 0},
            {"ph": "B", "name": "b", "ts": 1.0, "pid": 0, "tid": 0},
            {"ph": "E", "name": "a", "ts": 2.0, "pid": 0, "tid": 0},
            {"ph": "E", "name": "b", "ts": 3.0, "pid": 0, "tid": 0},
        ]
    )
    # X child poking out of its parent
    assert validate_spans(
        [
            {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 0},
            {"ph": "X", "name": "x", "ts": 0.5, "dur": 9.0, "pid": 0, "tid": 0},
            {"ph": "E", "name": "a", "ts": 1.0, "pid": 0, "tid": 0},
        ]
    )
    # separate lanes do not interfere
    assert (
        validate_spans(
            [
                {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 1},
                {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 2},
                {"ph": "E", "name": "a", "ts": 1.0, "pid": 0, "tid": 1},
                {"ph": "E", "name": "a", "ts": 1.0, "pid": 0, "tid": 2},
            ]
        )
        == []
    )


def test_summarize_span_durations_and_phase_power():
    sink = MemorySink()
    t = Tracer(sink, clock=iter(range(100)).__next__)
    with t.span("work", cat="insitu", tid=1):
        t.complete("phase.force", 2.0, cat="power", tid=1, energy_j=220.0,
                   limited=True)
        t.complete("phase.force", 0.0, cat="power", tid=1, ts=1.0,
                   limited=False)
    summ = summarize(sink.records)
    # fake clock ticks once per emit: B at 0, X at 1, E at 2
    assert summ.spans[("insitu", "work")].count == 1
    assert summ.spans[("insitu", "work")].total_s == 2.0
    force = summ.phases["force"]
    assert force.count == 2 and force.limited == 1
    assert force.total_s == 2.0
    assert force.mean_power_w == pytest.approx(110.0)
    text = summ.render()
    assert "force" in text and "110" in text and "limited" in text
