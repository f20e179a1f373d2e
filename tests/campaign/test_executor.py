"""Campaign engine: determinism across backends, caching, dedup, and
fault tolerance (raising / hanging / dying workers, missing pool).

The fault-injection ``run_fn``s are module-level so the process pool
can pickle them; the child-only faults use ``multiprocessing
.parent_process()`` to behave only inside a pool worker, which lets
the in-process retry succeed — exactly the recovery path the engine
promises.
"""

import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignEngine,
    CellFailure,
    CellSpec,
    CellStore,
    run_cell,
)
from repro.campaign import executor as executor_mod
from repro.telemetry import MemorySink, Tracer, use_tracer
from repro.workloads import JobConfig


def _spec(seed=1, run_index=0):
    return CellSpec(
        "seesaw",
        JobConfig(
            analyses=("vacf",), dim=16, n_nodes=8, seed=seed, n_verlet_steps=10
        ),
        run_index=run_index,
    )


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def raise_in_child(spec):
    if _in_worker():
        raise RuntimeError("injected worker fault")
    return run_cell(spec)


def hang_in_child(spec):
    if _in_worker():
        time.sleep(10.0)
    return run_cell(spec)


def die_in_child(spec):
    if _in_worker():
        os._exit(13)
    return run_cell(spec)


def always_raise(spec):
    raise ValueError("unconditionally broken cell")


_CALLS = {"n": 0}


def counting_fn(spec):
    _CALLS["n"] += 1
    return run_cell(spec)


def raise_once(spec):
    _CALLS["n"] += 1
    if _CALLS["n"] == 1:
        raise RuntimeError("first attempt fails")
    return run_cell(spec)


def lease_fds(spec):
    """``(pid, lease files this process holds open)``. The first time
    the seed-1 cell reaches a worker, the worker dies, so its slot is
    respawned while the parent holds the batch's leases."""
    mark = os.environ["LEASE_FD_MARK"]
    if spec.cfg.seed == 1 and _in_worker() and not os.path.exists(mark):
        open(mark, "w").close()
        os._exit(13)
    time.sleep(0.1)  # keep the queue full until the respawn is done
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.endswith(".lock"):
            held.append(target)
    return os.getpid(), held


def _traced(engine, specs):
    """Run ``specs`` under a memory tracer; results and the engine's
    own ``campaign.*`` records."""
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        results = engine.run_cells(specs)
    campaign = [
        r for r in sink.records if r.get("name", "").startswith("campaign.")
    ]
    return results, campaign


def _statuses(records):
    return [
        r["args"]["status"] for r in records if r["name"] == "campaign.cell"
    ]


# ----------------------------------------------------------- determinism
def test_parallel_results_identical_to_serial():
    """ISSUE acceptance: --jobs N must be bit-identical to serial."""
    specs = [_spec(seed=s, run_index=r) for s in (1, 2) for r in (0, 1)]
    serial = CampaignEngine(jobs=1).run_cells(specs)
    parallel = CampaignEngine(jobs=4).run_cells(specs)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a == b  # full dataclass equality: config, records, totals
        assert a.total_time_s == b.total_time_s


def test_results_keep_submission_order():
    specs = [_spec(seed=s) for s in (5, 3, 9)]
    results = CampaignEngine(jobs=2).run_cells(specs)
    assert [r.config.seed for r in results] == [5, 3, 9]


# ----------------------------------------------------------- caching
def test_cache_hit_skips_execution(tmp_path):
    store = CellStore(tmp_path)
    engine = CampaignEngine(store=store, run_fn=counting_fn)
    _CALLS["n"] = 0
    cold = engine.run_cells([_spec(seed=1), _spec(seed=2)])
    assert _CALLS["n"] == 2 and engine.journal.counts["misses"] == 2

    engine2 = CampaignEngine(store=store, run_fn=counting_fn)
    journal2 = engine2.journal
    warm = engine2.run_cells([_spec(seed=1), _spec(seed=2)])
    assert _CALLS["n"] == 2  # nothing re-executed
    assert journal2.all_hits and journal2.counts["hits"] == 2
    assert warm == cold


def test_identical_cells_in_batch_deduplicated():
    engine = CampaignEngine(run_fn=counting_fn)
    _CALLS["n"] = 0
    a, b = engine.run_cells([_spec(seed=7), _spec(seed=7)])
    assert _CALLS["n"] == 1
    assert engine.journal.counts["dups"] == 1
    assert a == b


def test_cached_cell_held_twice_is_read_once(tmp_path):
    store = CellStore(tmp_path)
    CampaignEngine(store=store).run_cells([_spec(seed=7)])
    gets = []
    read = store.get

    def counting_get(key):
        gets.append(key)
        return read(key)

    store.get = counting_get
    engine = CampaignEngine(store=store)
    (a, b), records = _traced(engine, [_spec(seed=7), _spec(seed=7)])
    assert len(gets) == 1
    assert _statuses(records) == ["hit", "dup"]
    assert engine.journal.counts["hits"] == engine.journal.counts["dups"] == 1
    assert a == b


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd"
)
def test_pool_workers_hold_no_lease_fds(tmp_path, monkeypatch):
    """Workers forked before the batch's leases are taken, and a slot
    respawned while they are held, keep no lease file open: a worker
    orphaned by a killed run must not block a re-run's leases."""
    monkeypatch.setenv("LEASE_FD_MARK", str(tmp_path / "died"))
    engine = CampaignEngine(
        jobs=2, store=CellStore(tmp_path / "cache"), run_fn=lease_fds
    )
    try:
        results, records = _traced(
            engine, [_spec(seed=s) for s in range(1, 7)]
        )
        stats = engine.scheduler_stats
    finally:
        engine.close()
    assert any(r["name"] == "campaign.worker-lost" for r in records)
    assert stats.workers[0].respawns == 1
    in_workers = [(pid, held) for pid, held in results if pid != os.getpid()]
    assert stats.workers[0].pid in {pid for pid, _ in in_workers}
    assert all(held == [] for _, held in in_workers), in_workers


# ----------------------------------------------------------- robustness
def test_raising_worker_is_retried_and_journaled():
    """ISSUE acceptance: a raising worker is retried, the failure is
    traced as an ``error`` span, and the campaign completes with correct
    results."""
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    engine = CampaignEngine(jobs=2, run_fn=raise_in_child, retries=1)
    try:
        results, records = _traced(engine, specs)
    finally:
        engine.close()
    journal = engine.journal
    assert results == expected
    assert journal.counts["errors"] == 2  # one pool failure per cell
    assert journal.counts["retries"] == 2  # both recovered in-process
    errors = [r["args"] for r in records if r["name"] == "campaign.cell"
              and r["args"]["status"] == "error"]
    assert errors and all("injected worker fault" in a["error"] for a in errors)
    assert "retried" in _statuses(records)


def test_failed_attempt_spans_match_the_counters():
    """A cell whose first attempt raises gets an ``error`` span, then a
    ``retried`` span; the spans' statuses tally as the counters do."""
    _CALLS["n"] = 0
    engine = CampaignEngine(run_fn=raise_once, retries=1)
    results, records = _traced(engine, [_spec(seed=4)])
    assert results == [run_cell(_spec(seed=4))]
    assert _statuses(records) == ["error", "retried"]
    (error,) = [r for r in records if r["args"].get("status") == "error"]
    assert error["args"]["attempt"] == 1
    assert "first attempt fails" in error["args"]["error"]
    counts = engine.journal.counts
    assert counts["errors"] == _statuses(records).count("error") == 1
    assert counts["retries"] == _statuses(records).count("retried") == 1
    assert counts["misses"] == counts["cells"] == 1


def test_hanging_worker_times_out_and_recovers():
    engine = CampaignEngine(jobs=2, run_fn=hang_in_child, timeout_s=0.5)
    journal = engine.journal
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    results = engine.run_cells(specs)
    assert results == expected
    assert journal.counts["timeouts"] >= 1
    assert journal.counts["cells"] == 2


def test_dead_worker_breaks_pool_and_falls_back():
    engine = CampaignEngine(jobs=2, run_fn=die_in_child)
    specs = [_spec(seed=1), _spec(seed=2)]
    results = engine.run_cells(specs)
    assert results == CampaignEngine().run_cells(specs)
    assert engine.journal.counts["cells"] == 2


def test_unrecoverable_cell_raises_cell_failure():
    engine = CampaignEngine(run_fn=always_raise, retries=1)
    sink = MemorySink()
    with pytest.raises(CellFailure), use_tracer(Tracer(sink)):
        engine.run_cells([_spec()])
    journal = engine.journal
    assert journal.counts["errors"] == 2  # initial attempt + 1 retry
    assert journal.counts["failed"] == 1
    spans = [r for r in sink.records if r["name"] == "campaign.cell"]
    assert _statuses(spans) == ["error", "error", "failed"]


def test_unrecoverable_cell_raises_through_the_pool_path():
    """jobs > 1: pool error + exhausted in-process retries -> failure."""
    engine = CampaignEngine(jobs=2, run_fn=always_raise, retries=1)
    journal = engine.journal
    try:
        with pytest.raises(CellFailure):
            engine.run_cells([_spec(seed=1), _spec(seed=2)])
    finally:
        engine.close()
    assert journal.counts["failed"] >= 1
    assert journal.counts["errors"] >= 2  # pool attempt + serial attempt


def test_timeout_rows_are_journaled_with_pool_backend():
    """A hung worker's cells land as 'timeout' spans naming the worker,
    then recover via the in-process retry ('retried' spans)."""
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    engine = CampaignEngine(jobs=2, run_fn=hang_in_child, timeout_s=0.5)
    try:
        results, records = _traced(engine, specs)
    finally:
        engine.close()
    assert results == expected
    timeouts = [r for r in records if r["name"] == "campaign.cell"
                and r["args"]["status"] == "timeout"]
    assert timeouts and all("timeout" in r["args"]["error"] for r in timeouts)
    assert "retried" in _statuses(records)
    assert engine.journal.counts["timeouts"] == len(timeouts)


def test_worker_dying_mid_cell_journals_lost_event():
    """A worker SIGKILLed mid-cell: the engine traces the loss, the
    slot respawns, and the cell recovers in-process."""
    specs = [_spec(seed=1), _spec(seed=2), _spec(seed=3)]
    expected = CampaignEngine().run_cells(specs)
    engine = CampaignEngine(jobs=2, run_fn=die_in_child)
    try:
        results, records = _traced(engine, specs)
    finally:
        engine.close()
    assert results == expected
    assert engine.journal.counts["cells"] == 3
    assert any(r["name"] == "campaign.worker-lost" for r in records)
    assert _statuses(records).count("retried") == 3


def test_single_todo_cell_with_parallel_engine_runs_serially():
    """One uncached cell never pays pool dispatch: no pool is built."""
    engine = CampaignEngine(jobs=4)
    results = engine.run_cells([_spec(seed=9)])
    assert engine._pool is None
    assert results[0].config.seed == 9
    engine.close()


def test_scheduler_stats_exposed_after_pool_batch():
    engine = CampaignEngine(jobs=2)
    assert engine.scheduler_stats is None
    try:
        engine.run_cells([_spec(seed=s) for s in range(1, 7)])
        stats = engine.scheduler_stats
        assert stats is not None
        assert stats.n_workers == 2
        assert sum(w.cells for w in stats.workers) == 6
        assert stats.dispatches == 6
        assert stats.wall_s > 0
        assert 0.0 <= stats.utilization() <= 1.0
    finally:
        engine.close()


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    from repro.campaign.scheduler import SchedulerUnavailable, WorkerPool

    def broken_start(self):
        raise SchedulerUnavailable("no semaphores in this sandbox")

    monkeypatch.setattr(WorkerPool, "ensure_started", broken_start)
    engine = CampaignEngine(jobs=4)
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        results = engine.run_cells([_spec(seed=1), _spec(seed=2)])
        # the broken pool is remembered: later batches skip it entirely
        more = engine.run_cells([_spec(seed=3), _spec(seed=4)])
    engine.close()
    assert [r.config.seed for r in results] == [1, 2]
    assert [r.config.seed for r in more] == [3, 4]
    names = [r["name"] for r in sink.records]
    assert names.count("campaign.pool-unavailable") == 1
    assert names.count("campaign.batch") == 2
    assert engine.journal.counts["misses"] == 4


def test_warm_pool_is_reused_across_batches():
    """The worker pool persists between run_cells calls (warm pool)."""
    engine = CampaignEngine(jobs=2)
    try:
        first = engine.run_cells([_spec(seed=1), _spec(seed=2)])
        pool = engine._pool
        assert pool is not None
        pids = [w.proc.pid for w in pool.workers]
        second = engine.run_cells([_spec(seed=3), _spec(seed=4)])
        assert engine._pool is pool
        assert [w.proc.pid for w in pool.workers] == pids  # no respawn
    finally:
        engine.close()
    assert [r.config.seed for r in first + second] == [1, 2, 3, 4]
    assert engine._pool is None  # close() tears the pool down


def test_close_is_idempotent_and_engine_still_runs_serially():
    engine = CampaignEngine(jobs=2)
    engine.run_cells([_spec(seed=1), _spec(seed=2)])
    engine.close()
    engine.close()
    # a fresh pool is built lazily if the engine is used again
    results = engine.run_cells([_spec(seed=5), _spec(seed=6)])
    assert [r.config.seed for r in results] == [5, 6]
    engine.close()


# ----------------------------------------------------------- validation
def test_engine_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CampaignEngine(jobs=0)
    with pytest.raises(ValueError):
        CampaignEngine(retries=-1)
    with pytest.raises(ValueError):
        CellSpec("seesaw", _spec().cfg, run_index=-1)
