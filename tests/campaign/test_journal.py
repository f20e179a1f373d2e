"""Run journal: outcome counters, their spans and instants in the
JSONL trace, and the torn-tail-aware reader of that trace."""

import json

from repro.campaign import RunJournal
from repro.telemetry import JsonlSink, MemorySink, Tracer, use_tracer
from repro.telemetry.sinks import read_records, tail_records


def test_counters_only_without_path():
    j = RunJournal()
    j.cell("l1", "hit", 0.0)
    j.cell("l2", "done", 0.5, tid=2)
    j.cell("l2", "error", 0.1, attempt=1)
    j.cell("l2", "retried", 0.2, attempt=2)
    j.cell("l3", "timeout", 1.0)
    j.cell("l4", "dup", 0.0)
    assert j.counts["cells"] == 4
    assert j.counts["hits"] == 1
    assert j.counts["misses"] == 2
    assert j.counts["dups"] == 1
    assert j.counts["errors"] == 1
    assert j.counts["timeouts"] == 1
    assert j.counts["retries"] == 1
    assert not j.all_hits


def test_jsonl_file_contents(tmp_path):
    path = tmp_path / "sub" / "run.jsonl"
    tracer = Tracer(JsonlSink(path))
    j = RunJournal()
    with use_tracer(tracer):
        j.event("pool-unavailable", error="nope")
        j.cell("seesaw/x", "done", 0.25, tid=8)
        summary = j.summary(jobs=4)
    tracer.close()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [(l["ph"], l["name"]) for l in lines] == [
        ("i", "campaign.pool-unavailable"),
        ("X", "campaign.cell"),
        ("i", "campaign.summary"),
    ]
    assert all(l["pid"] == 0 and l["cat"] == "campaign" for l in lines)
    cell = lines[1]
    assert cell["args"] == {"label": "seesaw/x", "status": "done"}
    assert cell["tid"] == 8
    assert cell["dur"] == 0.25
    assert lines[2]["args"]["misses"] == 1 and lines[2]["args"]["jobs"] == 4
    assert summary["cells"] == 1


def test_all_hits():
    j = RunJournal()
    assert not j.all_hits  # vacuously false: nothing scheduled
    j.cell("l", "hit", 0.0)
    assert j.all_hits


def test_single_flight_hit_counts_as_shared():
    j = RunJournal()
    j.cell("l", "hit", 0.0, via="single-flight")
    j.cell("l2", "hit", 0.0)
    assert j.counts["hits"] == 2
    assert j.counts["shared"] == 1


# ------------------------------------------------------------- read side
def test_read_records_of_missing_file_is_empty(tmp_path):
    assert read_records(tmp_path / "nope.jsonl") == []


def test_tail_records_is_incremental_and_torn_tail_aware(tmp_path):
    path = tmp_path / "run.jsonl"
    sink = JsonlSink(path)
    sink.emit({"key": "k1"})
    sink.emit({"key": "k2"})
    sink.close()
    records, offset = tail_records(path, 0)
    assert [r["key"] for r in records] == ["k1", "k2"]
    assert offset == path.stat().st_size

    # nothing new: same offset back, no records
    assert tail_records(path, offset) == ([], offset)

    # a torn tail stays unread until its newline arrives
    with path.open("a") as fh:
        fh.write('{"key": "k3"')
    assert tail_records(path, offset) == ([], offset)
    with path.open("a") as fh:
        fh.write(', "status": "done"}\n')
    records, offset2 = tail_records(path, offset)
    assert [r["key"] for r in records] == ["k3"]
    assert offset2 == path.stat().st_size


def test_read_records_skips_unparseable_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"event": "a"}\ngarbage\n42\n{"event": "b"}\n')
    assert [r["event"] for r in read_records(path) if "event" in r] == [
        "a",
        "b",
    ]
    # non-dict JSON lines (the bare 42) are dropped too
    assert all(isinstance(r, dict) for r in read_records(path))
