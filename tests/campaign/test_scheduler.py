"""Pool unit tests: cost ranking, longest-first dispatch order, the
ratio ETA, pool lifecycle, and end-to-end determinism.

End-to-end tests use the real :func:`repro.campaign.cells.run_cell`
(module-level, picklable); the dispatch-order test needs no processes.
"""

import atexit
import gc
import multiprocessing
import os
import signal
import time
import weakref
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignEngine,
    CellSpec,
    CellStore,
    cell_key,
    cell_units,
    run_cell,
)
from repro.campaign.scheduler import (
    SchedulerUnavailable,
    WorkerPool,
    dispatch_order,
)
from repro.metrics import MetricRegistry, MetricsSink
from repro.telemetry import MemorySink, Tracer, use_tracer
from repro.workloads import JobConfig


def _spec(seed=1, steps=10, nodes=8):
    return CellSpec(
        "seesaw",
        JobConfig(
            analyses=("vacf",),
            dim=16,
            n_nodes=nodes,
            seed=seed,
            n_verlet_steps=steps,
        ),
    )


# ----------------------------------------------------------- cost units
def test_cost_model_ranks_bigger_cells_higher():
    small = cell_units(_spec(steps=10, nodes=8))
    tall = cell_units(_spec(steps=10, nodes=512))
    long_ = cell_units(_spec(steps=400, nodes=8))
    assert small > 0
    assert tall > small and long_ > small


# ----------------------------------------------------------- dispatch
def test_lpt_assignment_balances_skewed_costs():
    """Longest first, ties in submission order; handing each next cell
    to the first idle worker then balances a skewed batch."""
    steps = [10, 90, 10, 40, 90, 10]
    specs = [_spec(seed=i + 1, steps=n) for i, n in enumerate(steps)]
    assert dispatch_order(specs) == [1, 4, 3, 0, 2, 5]
    assert dispatch_order([]) == []
    # offline list scheduling of the order on 2 workers: submission
    # order would split this 19 / 3; longest first balances it 11 / 11
    costs = [1.0, 1.0, 1.0, 10.0, 9.0]
    specs = [_spec(seed=i + 1, steps=int(10 * c)) for i, c in enumerate(costs)]
    loads = [0.0, 0.0]
    for i in dispatch_order(specs):
        loads[loads.index(min(loads))] += costs[i]
    assert sorted(loads) == [11.0, 11.0]


def test_eta_uses_calibrated_cost_model():
    """The ETA scales remaining units by this batch's busy seconds per
    completed unit, spread over the workers."""
    specs = [_spec(seed=s, steps=n) for s, n in ((1, 40), (2, 20), (3, 10))]
    units = [cell_units(s) for s in specs]
    pool = WorkerPool(2, run_cell)
    try:
        assert pool.eta_s() is None  # no completion yet
        outcomes = pool.run(specs)
        first = next(outcomes)
        # every other cell is queued or in flight
        remaining = sum(units) - units[first.task_id]
        assert pool.eta_s() == pytest.approx(
            remaining * (first.wall_s / units[first.task_id]) / 2
        )
        rest = list(outcomes)
    finally:
        pool.shutdown()
    assert len(rest) == 2
    assert pool.eta_s() == 0.0


# ----------------------------------------------------------- end to end
def test_run_yields_every_task_exactly_once_with_correct_results():
    specs = [_spec(seed=s) for s in range(1, 9)]
    expected = [run_cell(s) for s in specs]
    pool = WorkerPool(2, run_cell)
    try:
        outcomes = list(pool.run(specs))
    finally:
        pool.shutdown()
    assert sorted(o.task_id for o in outcomes) == list(range(8))
    assert all(o.status == "ok" for o in outcomes)
    for o in outcomes:
        assert o.result == expected[o.task_id]
    stats = pool.stats
    assert stats.n_workers == 2
    assert sum(w.cells for w in stats.workers) == 8
    assert stats.dispatches == 8
    assert stats.wall_s > 0


def test_scheduler_metrics_are_mirrored_into_registry():
    # the stats ride the engine's campaign.sched instants, which a
    # MetricsSink folds into the registry like any other record
    registry = MetricRegistry()
    sink = MemorySink()
    specs = [_spec(seed=s) for s in range(1, 7)]
    engine = CampaignEngine(jobs=2)
    try:
        with use_tracer(Tracer(MetricsSink(registry, forward=sink))):
            engine.run_cells(specs)
    finally:
        engine.close()
    sched = [
        r["args"] for r in sink.records if r["name"] == "campaign.sched"
    ]
    assert registry.counter("event.campaign.sched").value == len(sched)
    assert registry.histogram("event.campaign.sched.wall_s").count == len(sched)
    final = sched[-1]
    assert final["final"] is True
    assert final["dispatches"] == 6
    assert final["queue_depth"] == 0
    assert [w["wid"] for w in final["workers"]] == [0, 1]
    assert sum(w["cells"] for w in final["workers"]) == 6
    assert all(0.0 <= w["utilization"] <= 1.0 for w in final["workers"])


# ----------------------------------------------------------- pool
def test_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        WorkerPool(0, run_cell)


def test_pool_shutdown_is_idempotent_and_poisons_restart():
    pool = WorkerPool(1, run_cell)
    pool.ensure_started()
    assert all(w.alive for w in pool.workers)
    pool.shutdown()
    pool.shutdown()
    assert pool.workers == []
    with pytest.raises(SchedulerUnavailable):
        pool.ensure_started()


def test_shut_pools_leave_no_exit_hook_behind():
    # one exit hook serves every pool, and a pool leaves it when it shuts
    # down: a process that builds many pools neither grows the hooks nor
    # keeps the pools alive. A first started pool lets multiprocessing
    # register its own hooks.
    warm = WorkerPool(1, run_cell)
    warm.ensure_started()
    warm.shutdown()
    before = atexit._ncallbacks()
    refs = []
    for i in range(20):
        pool = WorkerPool(1, run_cell)
        if i % 5 == 0:
            pool.ensure_started()
        pool.shutdown()
        refs.append(weakref.ref(pool))
        del pool
    assert atexit._ncallbacks() == before
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_pool_respawn_replaces_process_in_place():
    pool = WorkerPool(2, run_cell)
    pool.ensure_started()
    try:
        worker = pool.workers[0]
        old_pid = worker.proc.pid
        pool.respawn(worker)
        assert worker.alive
        assert worker.proc.pid != old_pid
        assert worker.stats.respawns == 1
        # the respawned worker still executes work
        outcomes = list(pool.run([_spec(seed=3)]))
        assert [o.status for o in outcomes] == ["ok"]
    finally:
        pool.shutdown()


# -------------------------------------------- orphaned-worker reaping
def _sleep_ms_run(spec):
    time.sleep(spec.cfg.n_verlet_steps * 1e-3)
    return spec.cfg.seed


def _long_specs():
    # 30 s cells: the victim is guaranteed to die mid-batch
    return [_spec(seed=s, steps=30_000) for s in (93, 94, 95, 96)]


def _pooled_victim(root):
    engine = CampaignEngine(
        jobs=2, store=CellStore(root), run_fn=_sleep_ms_run
    )
    engine.run_cells(_long_specs())  # blocks until SIGKILLed


def _children_of(pid):
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(p) for p in text.split()]


def test_sigkill_of_parent_reaps_pool_workers(tmp_path):
    """SIGKILLing a pooled campaign must not strand its workers.

    The pool forks while the engine holds this batch's cell leases, so
    the workers inherit the ``flock`` fds. If they linger after the
    parent dies, the leases stay locked forever and any campaign
    resuming (or sharing) the cache wedges in ``wait_for``. The worker
    loop's parent-death watchdog must make them exit on their own,
    releasing every inherited lock.
    """
    if not Path("/proc").exists():
        pytest.skip("requires /proc to observe the worker processes")
    root = tmp_path / "cache"
    victim = multiprocessing.Process(target=_pooled_victim, args=(root,))
    victim.start()
    try:
        deadline = time.monotonic() + 60.0
        workers = []
        while time.monotonic() - deadline < 0:
            workers = _children_of(victim.pid)
            if len(workers) >= 2:
                break
            time.sleep(0.01)
        assert len(workers) >= 2, "pool never started in the victim"
    finally:
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

    # The orphaned workers must notice the dead parent and exit. A worker
    # already mid-cell only reaches the watchdog after its 30 s cell
    # completes, so allow for that plus poll latency and suite load.
    deadline = time.monotonic() + 45.0
    alive = set(workers)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    assert not alive, f"workers {alive} survived their parent"

    # ... which releases the inherited leases: every key is claimable
    store = CellStore(root)
    for spec in _long_specs():
        lease = store.try_lease(cell_key(spec))
        assert lease is not None, "lease still locked by a dead campaign"
        lease.release()
