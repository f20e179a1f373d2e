"""Campaign engine: determinism across backends, caching, dedup, and
fault tolerance (raising / hanging / dying workers, missing pool).

The fault-injection ``run_fn``s are module-level so the process pool
can pickle them; the child-only faults use ``multiprocessing
.parent_process()`` to behave only inside a pool worker, which lets
the in-process retry succeed — exactly the recovery path the engine
promises.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignEngine,
    CellFailure,
    CellSpec,
    CellStore,
    RunJournal,
    run_cell,
)
from repro.campaign import executor as executor_mod
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
    journal = RunJournal()
    engine = CampaignEngine(store=store, journal=journal, run_fn=counting_fn)
    _CALLS["n"] = 0
    cold = engine.run_cells([_spec(seed=1), _spec(seed=2)])
    assert _CALLS["n"] == 2 and journal.counts["misses"] == 2

    journal2 = RunJournal()
    engine2 = CampaignEngine(store=store, journal=journal2, run_fn=counting_fn)
    warm = engine2.run_cells([_spec(seed=1), _spec(seed=2)])
    assert _CALLS["n"] == 2  # nothing re-executed
    assert journal2.all_hits and journal2.counts["hits"] == 2
    assert warm == cold


def test_identical_cells_in_batch_deduplicated():
    journal = RunJournal()
    engine = CampaignEngine(journal=journal, run_fn=counting_fn)
    _CALLS["n"] = 0
    a, b = engine.run_cells([_spec(seed=7), _spec(seed=7)])
    assert _CALLS["n"] == 1
    assert journal.counts["dups"] == 1
    assert a == b


# ----------------------------------------------------------- robustness
def test_raising_worker_is_retried_and_journaled(tmp_path):
    """ISSUE acceptance: a raising worker is retried, the failure is
    journaled, and the campaign completes with correct results."""
    path = tmp_path / "run.jsonl"
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    with RunJournal(path) as journal:
        engine = CampaignEngine(
            jobs=2, journal=journal, run_fn=raise_in_child, retries=1
        )
        results = engine.run_cells(specs)
    assert results == expected
    assert journal.counts["errors"] == 2  # one pool failure per cell
    assert journal.counts["retries"] == 2  # both recovered in-process
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    errors = [l for l in lines if l.get("status") == "error"]
    assert errors and all("injected worker fault" in l["error"] for l in errors)
    assert any(l.get("status") == "retried" for l in lines)


def test_hanging_worker_times_out_and_recovers():
    journal = RunJournal()
    engine = CampaignEngine(
        jobs=2, journal=journal, run_fn=hang_in_child, timeout_s=0.5
    )
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    results = engine.run_cells(specs)
    assert results == expected
    assert journal.counts["timeouts"] >= 1
    assert journal.counts["cells"] == 2


def test_dead_worker_breaks_pool_and_falls_back():
    journal = RunJournal()
    engine = CampaignEngine(jobs=2, journal=journal, run_fn=die_in_child)
    specs = [_spec(seed=1), _spec(seed=2)]
    results = engine.run_cells(specs)
    assert results == CampaignEngine().run_cells(specs)
    assert journal.counts["cells"] == 2


def test_unrecoverable_cell_raises_cell_failure():
    journal = RunJournal()
    engine = CampaignEngine(journal=journal, run_fn=always_raise, retries=1)
    with pytest.raises(CellFailure):
        engine.run_cells([_spec()])
    assert journal.counts["errors"] == 2  # initial attempt + 1 retry
    assert journal.counts["failed"] == 1


def test_unrecoverable_cell_raises_through_the_pool_path():
    """jobs > 1: pool error + exhausted in-process retries -> failure."""
    journal = RunJournal()
    engine = CampaignEngine(
        jobs=2, journal=journal, run_fn=always_raise, retries=1
    )
    try:
        with pytest.raises(CellFailure):
            engine.run_cells([_spec(seed=1), _spec(seed=2)])
    finally:
        engine.close()
    assert journal.counts["failed"] >= 1
    assert journal.counts["errors"] >= 2  # pool attempt + serial attempt


def test_timeout_rows_are_journaled_with_pool_backend(tmp_path):
    """A hung worker's cells land as 'timeout' rows tagged backend=pool,
    then recover via the in-process retry ('retried' rows)."""
    path = tmp_path / "run.jsonl"
    specs = [_spec(seed=1), _spec(seed=2)]
    expected = CampaignEngine().run_cells(specs)
    with RunJournal(path) as journal:
        engine = CampaignEngine(
            jobs=2, journal=journal, run_fn=hang_in_child, timeout_s=0.5
        )
        results = engine.run_cells(specs)
        engine.close()
    assert results == expected
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    timeouts = [l for l in lines if l.get("status") == "timeout"]
    assert timeouts and all(l["backend"] == "pool" for l in timeouts)
    assert any(l.get("status") == "retried" for l in lines)


def test_worker_dying_mid_cell_journals_lost_event(tmp_path):
    """A worker SIGKILLed mid-cell: the engine journals the loss, the
    slot respawns, and the cell recovers in-process."""
    path = tmp_path / "run.jsonl"
    specs = [_spec(seed=1), _spec(seed=2), _spec(seed=3)]
    expected = CampaignEngine().run_cells(specs)
    with RunJournal(path) as journal:
        engine = CampaignEngine(jobs=2, journal=journal, run_fn=die_in_child)
        results = engine.run_cells(specs)
        engine.close()
    assert results == expected
    assert journal.counts["cells"] == 3
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert any(l["event"] == "worker-lost" for l in lines)
    assert sum(1 for l in lines if l.get("status") == "retried") == 3


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


def test_pool_unavailable_falls_back_to_serial(tmp_path, monkeypatch):
    from repro.campaign.scheduler import SchedulerUnavailable, WorkerPool

    def broken_start(self):
        raise SchedulerUnavailable("no semaphores in this sandbox")

    monkeypatch.setattr(WorkerPool, "ensure_started", broken_start)
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        engine = CampaignEngine(jobs=4, journal=journal)
        results = engine.run_cells([_spec(seed=1), _spec(seed=2)])
        # the broken pool is remembered: later batches skip it entirely
        more = engine.run_cells([_spec(seed=3), _spec(seed=4)])
        engine.close()
    assert [r.config.seed for r in results] == [1, 2]
    assert [r.config.seed for r in more] == [3, 4]
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert any(l["event"] == "pool-unavailable" for l in lines)
    assert journal.counts["misses"] == 4


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
