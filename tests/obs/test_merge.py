"""Parent-side telemetry mux: lane re-stamping and merge validity.

The heart of the observability plane's correctness argument: two
workers number their trace processes independently, so *raw* merged
records collide on (pid, tid) lanes and fail span validation — the mux
re-stamps them onto per-worker pid blocks, after which the merged
stream validates clean (ISSUE satellite: interleaved multi-process
records with identical span ids).
"""

from repro.campaign.journal import RunJournal, read_records
from repro.metrics import MetricRegistry, use_metrics
from repro.obs.merge import PID_STRIDE, TelemetryMux
from repro.telemetry import MemorySink, Tracer, use_tracer, validate_spans


def _worker_batch(wid, t0=0.0):
    """One worker's records for one cell: pid 1, spans starting at t0.

    Both workers use the *same* local pid and tids — exactly the
    collision the mux must resolve.
    """
    return {
        "wid": wid,
        "dropped": 0,
        "records": [
            {"ph": "M", "name": "process_name", "cat": "", "ts": 0.0,
             "pid": 1, "tid": 0, "args": {"name": "run"}},
            {"ph": "B", "name": "outer", "cat": "", "ts": t0,
             "pid": 1, "tid": 1, "args": None},
            {"ph": "X", "name": "phase.md", "cat": "", "ts": t0 + 0.1,
             "dur": 0.2, "pid": 1, "tid": 1, "args": {"energy_j": 5.0}},
            {"ph": "E", "name": "outer", "cat": "", "ts": t0 + 1.0,
             "pid": 1, "tid": 1, "args": None},
        ],
    }


def test_raw_interleaved_merge_fails_but_stamped_merge_validates():
    # two workers, same local lanes, overlapping-backwards timestamps:
    # the naive concatenation is structurally broken
    a, b = _worker_batch(0, t0=5.0), _worker_batch(1, t0=0.0)
    raw = a["records"] + b["records"]
    assert validate_spans(raw)  # ts goes backwards in the shared lane

    sink = MemorySink()
    mux = TelemetryMux()
    with use_tracer(Tracer(sink)):
        mux.absorb(a, cell_label="seesaw/x", cell_key="k1")
        mux.absorb(b, cell_label="lapack/y", cell_key="k2")
    assert validate_spans(sink.records) == []
    assert mux.absorbed == len(raw)


def test_absorb_restamps_identity():
    sink = MemorySink()
    mux = TelemetryMux(campaign_id="cafe01")
    with use_tracer(Tracer(sink)):
        mux.absorb(_worker_batch(2), cell_label="seesaw/z", cell_key="beef")
    spans = [r for r in sink.records if r.get("ph") == "X"]
    (span,) = spans
    assert span["pid"] == (2 + 1) * PID_STRIDE + 1
    assert span["worker"] == 2
    assert span["cell"] == "beef"
    assert span["label"] == "seesaw/z"
    assert span["campaign"] == "cafe01"
    # the worker-local run label is prefixed with worker + cell identity
    pname = next(
        r for r in sink.records
        if r.get("ph") == "M" and r["name"] == "process_name"
    )
    assert pname["args"]["name"] == "w2 seesaw/z"


def test_worker_lane_named_once_on_campaign_process():
    sink = MemorySink()
    mux = TelemetryMux()
    with use_tracer(Tracer(sink)):
        assert mux.ensure_worker_lane(0) == 1
        assert mux.ensure_worker_lane(0) == 1
        assert mux.ensure_worker_lane(3) == 4
    names = [
        r for r in sink.records
        if r.get("ph") == "M" and r["name"] == "thread_name"
    ]
    assert [(r["pid"], r["tid"], r["args"]["name"]) for r in names] == [
        (0, 1, "worker 0"),
        (0, 4, "worker 3"),
    ]


def test_dropped_batches_are_counted_not_merged():
    sink = MemorySink()
    registry = MetricRegistry()
    mux = TelemetryMux()
    with use_metrics(registry), use_tracer(Tracer(sink)):
        kept = mux.absorb({"wid": 0, "records": [], "dropped": 17})
    assert kept == 0
    assert mux.dropped == 17 and mux.absorbed == 0
    assert sink.records == []
    assert registry.counter("obs.ship.dropped").value == 17


def test_file_backed_journal_receives_telemetry_rows(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        mux = TelemetryMux(journal=journal)
        mux.absorb(_worker_batch(0), cell_label="l", cell_key="k")
    rows = [r for r in read_records(path) if r["event"] == "telemetry"]
    assert len(rows) == 5  # 4 shipped + the worker-lane thread_name
    assert all(r.get("worker") == 0 for r in rows if r.get("ph") != "M" or r["name"] != "thread_name")


def test_counter_free_when_journal_memory_only():
    # a path-less journal (counters only) must not receive rows
    journal = RunJournal()
    mux = TelemetryMux(journal=journal)
    mux.absorb(_worker_batch(1))  # no ambient tracer, no file: no crash
    assert mux.absorbed == 4


def test_absorbed_batch_is_one_fsynced_append_with_per_record_bytes(
    tmp_path, monkeypatch
):
    import repro.campaign.journal as journal_mod

    fsyncs = []
    real_fsync = journal_mod.os.fsync

    def counted(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(journal_mod.os, "fsync", counted)
    batches = [(_worker_batch(0), "a", "k1"), (_worker_batch(1, t0=2.0), "b", "k2")]
    batched = tmp_path / "batched.jsonl"
    with RunJournal(batched) as journal:
        mux = TelemetryMux(journal=journal, campaign_id="c0")
        for batch, label, key in batches:
            before = len(fsyncs)
            mux.absorb(batch, cell_label=label, cell_key=key)
            assert len(fsyncs) == before + 1

    # reference: the same re-stamped records written one row at a time
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        mux = TelemetryMux(campaign_id="c0")
        for batch, label, key in batches:
            mux.absorb(batch, cell_label=label, cell_key=key)
    single = tmp_path / "single.jsonl"
    with RunJournal(single) as journal:
        for record in sink.records:
            journal.telemetry(record)
    assert batched.read_bytes() == single.read_bytes()
    assert len(batched.read_bytes().splitlines()) == 2 * 5
