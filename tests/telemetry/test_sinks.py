"""Sink hardening: JsonlSink flush bounds, MemorySink thread safety."""

import json
import threading

import pytest

from repro.telemetry.sinks import JsonlSink, MemorySink


def _rec(i):
    return {"ph": "i", "name": f"e{i}", "ts": float(i)}


# ------------------------------------------------------------- JsonlSink
def test_jsonl_flushes_every_n_records(tmp_path):
    """Crash-tail bound: without close(), at most flush_every - 1
    records can be lost to libc buffering."""
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, flush_every=8)
    for i in range(20):
        sink.emit(_rec(i))
    # 16 flushed (two full batches); the 4 pending may sit in the buffer
    on_disk = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(on_disk) >= 16
    assert on_disk[:16] == [
        json.loads(json.dumps(_rec(i), sort_keys=True)) for i in range(16)
    ]
    sink.close()
    assert len(path.read_text().splitlines()) == 20


def test_jsonl_close_flushes_partial_batch(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, flush_every=64)
    for i in range(3):
        sink.emit(_rec(i))
    sink.close()
    assert len(path.read_text().splitlines()) == 3
    sink.close()  # idempotent
    sink.emit(_rec(99))  # post-close emit is dropped, not an error
    assert len(path.read_text().splitlines()) == 3


def test_jsonl_flush_every_validated(tmp_path):
    with pytest.raises(ValueError):
        JsonlSink(tmp_path / "t.jsonl", flush_every=0)


def test_jsonl_sink_replaces_an_earlier_file(tmp_path):
    """Two sink lifetimes on one path leave only the second one's
    records: a second ``run --trace t.jsonl`` must not sit behind the
    first run's ``campaign.summary``."""
    path = tmp_path / "t.jsonl"
    first = JsonlSink(path)
    for i in range(3):
        first.emit(_rec(i))
    first.close()
    second = JsonlSink(path)
    second.emit(_rec(7))
    second.close()
    assert [json.loads(l) for l in path.read_text().splitlines()] == [
        json.loads(json.dumps(_rec(7), sort_keys=True))
    ]


def test_jsonl_flush_every_one_is_unbuffered(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, flush_every=1)
    sink.emit(_rec(0))
    assert len(path.read_text().splitlines()) == 1
    sink.close()


# ------------------------------------------------------------ MemorySink
def test_memory_sink_concurrent_emit_loses_nothing():
    """Regression (ISSUE satellite): the campaign parent merges shipped
    batches while in-process instrumentation emits concurrently; no
    record may be lost or the list corrupted."""
    sink = MemorySink()
    n_threads, per_thread = 8, 500

    def pump(tid):
        for i in range(per_thread):
            sink.emit({"t": tid, "i": i})

    threads = [
        threading.Thread(target=pump, args=(t,)) for t in range(n_threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(sink.records) == n_threads * per_thread
    # every thread's stream arrived complete and in its own order
    for t in range(n_threads):
        mine = [r["i"] for r in sink.records if r["t"] == t]
        assert mine == list(range(per_thread))


def test_memory_sink_clear_races_emit_safely():
    sink = MemorySink()
    stop = threading.Event()

    def pump():
        i = 0
        while not stop.is_set():
            sink.emit({"i": i})
            i += 1

    th = threading.Thread(target=pump)
    th.start()
    for _ in range(200):
        sink.clear()
    stop.set()
    th.join()
    sink.clear()
    assert sink.records == []
