"""The campaign engine: cached, parallel, fault-tolerant cell fan-out.

Execution strategy for a batch of cells:

1. every cell is looked up in the content-addressed store (when one is
   attached) and deduplicated against identical cells in the batch;
2. uncached cells are *leased* through the store's single-flight locks:
   cells another concurrent campaign is already computing are observed
   (never recomputed), the rest are owned by this engine;
3. owned cells fan out through a cost-model-informed work-stealing
   scheduler over a **warm, persistent worker pool** when the engine
   was built with ``jobs > 1`` (see :mod:`repro.campaign.scheduler`):
   longest cells first, adaptive chunking, bounded in-flight work, and
   idle workers stealing from loaded ones. A raised/hung/lost worker
   triggers bounded retry, with the final attempt always executed
   in-process so a poisoned pool cannot fail a deterministic cell;
4. if the pool cannot be created at all (restricted environments,
   missing semaphores) the whole batch gracefully degrades to the
   in-process serial path — identical results, just slower;
5. every outcome is journaled and stored; with a file-backed journal
   the engine also writes ``scheduled`` ledger rows, making a killed
   campaign resumable (:mod:`repro.campaign.resume`).

Cells are deterministic (seed-addressed RNG streams), so parallel and
serial execution are bit-identical — asserted by the regression tests.

The experiment runner submits through the *ambient engine*
(:func:`get_engine`); :func:`use_engine` swaps it for a scope, which is
how the CLI's ``--jobs/--cache/--journal`` flags reach every harness
without per-harness plumbing.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from typing import Callable, Sequence

from repro.campaign.cells import CellSpec, cell_label, run_cell
from repro.campaign.hashing import cell_key
from repro.campaign.journal import RunJournal
from repro.campaign.scheduler import (
    CostModel,
    SchedulerUnavailable,
    WorkerPool,
    WorkStealingScheduler,
)
from repro.campaign.store import CellLease, CellStore
from repro.faults.injector import get_faults
from repro.obs.merge import TelemetryMux
from repro.telemetry import get_tracer

__all__ = ["CampaignEngine", "CellFailure", "get_engine", "use_engine"]


class CellFailure(RuntimeError):
    """A cell exhausted every attempt (pool and in-process)."""


class CampaignEngine:
    """Executes batches of cells; see the module docstring.

    Parameters
    ----------
    jobs:
        worker processes; ``1`` (default) runs in-process serially.
    store:
        optional :class:`CellStore` for content-addressed caching.
    journal:
        optional :class:`RunJournal`; one with ``path=None`` (counters
        only) is created when omitted.
    timeout_s:
        per-cell bound on worker progress: a worker that produces no
        result for this long is killed and its cells retried
        (``None`` = wait forever). In-process execution is not
        interruptible and is therefore not bounded.
    retries:
        extra attempts after a failed/timed-out first attempt. The
        last attempt always runs in-process.
    run_fn:
        the cell executor (default :func:`run_cell`); injectable for
        fault-injection tests. Must be picklable for pool use.
    progress:
        emit a live one-line progress update (with ETA once the cost
        model calibrates) to stderr.
    longest_first / steal / static_chunks:
        scheduling policy knobs (see
        :class:`~repro.campaign.scheduler.WorkStealingScheduler`).
        The defaults are the production policy; the FIFO/static
        combination exists as the benchmark baseline.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: CellStore | None = None,
        journal: RunJournal | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        run_fn: Callable[[CellSpec], object] = run_cell,
        progress: bool = False,
        longest_first: bool = True,
        steal: bool = True,
        static_chunks: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.store = store
        self.journal = journal if journal is not None else RunJournal()
        self.timeout_s = timeout_s
        self.retries = retries
        self.run_fn = run_fn
        self.progress = progress
        self.longest_first = longest_first
        self.steal = steal
        self.static_chunks = static_chunks
        self.cost_model = CostModel()
        #: merges telemetry batches shipped back by pool workers into
        #: the ambient tracer sink and the journal (repro.obs)
        self.obs = TelemetryMux(journal=self.journal)
        #: min wall seconds between journaled scheduler-stats rows
        self.sched_row_interval_s = 0.5
        self._last_sched_row = 0.0
        self._batch_t0: float | None = None
        self._pool: WorkerPool | None = None
        self._scheduler: WorkStealingScheduler | None = None
        self._pool_broken = False
        self._leases: dict[str, CellLease] = {}
        self._done = 0
        self._total = 0

    # ----------------------------------------------------------- pool
    def _ensure_scheduler(self) -> WorkStealingScheduler:
        """The warm pool + scheduler (created once, reused per batch)."""
        if self._scheduler is None:
            self._pool = WorkerPool(self.jobs, self.run_fn)
            self._scheduler = WorkStealingScheduler(
                self._pool,
                cost_model=self.cost_model,
                longest_first=self.longest_first,
                steal=self.steal,
                static_chunks=self.static_chunks,
            )
        return self._scheduler

    @property
    def scheduler_stats(self):
        """Stats of the most recent scheduled batch (None before any)."""
        return self._scheduler.stats if self._scheduler is not None else None

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
        self._pool = None
        self._scheduler = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------- telemetry
    def _trace_cell(
        self, spec: CellSpec, status: str, wall_s: float, tid: int = 0
    ) -> None:
        """One closed per-cell span + cache-outcome counter.

        Campaign telemetry lives on the wall clock in trace process 0:
        the cells *inside* bind the tracer to their own virtual clocks
        (one pid per simulation run), so explicit wall timestamps keep
        the campaign lane monotone regardless. Pool-executed cells land
        on ``tid = wid + 1`` — one campaign-lane row per worker, with
        each worker's cells laid end to end; cache hits and serial
        cells stay on ``tid 0``.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        now = tracer.wall_now()
        tracer.complete(
            "campaign.cell",
            wall_s,
            cat="campaign",
            tid=tid,
            ts=now - wall_s,
            pid=0,
            label=cell_label(spec),
            status=status,
        )
        kind = {"hit": "hits", "dup": "dups"}.get(status, "runs")
        tracer.counter(f"campaign.cache_{kind}", cat="campaign").inc()

    def _journal_sched_stats(self, final: bool = False) -> None:
        """Mirror live scheduler stats into the journal (throttled).

        One ``sched`` row at most every ``sched_row_interval_s`` wall
        seconds (plus an unconditional end-of-batch row) gives
        ``campaign watch`` worker utilization, queue depth, steals and
        ETA without a side channel — the journal stays the single
        stream every observer tails.
        """
        if self.journal.path is None or self._scheduler is None:
            return
        now = time.perf_counter()
        if not final and now - self._last_sched_row < self.sched_row_interval_s:
            return
        self._last_sched_row = now
        scheduler = self._scheduler
        stats = scheduler.stats
        wall_s = (
            stats.wall_s
            if stats.wall_s > 0
            else now - (self._batch_t0 or now)
        )
        self.journal.event(
            "sched",
            final=final,
            n_workers=stats.n_workers,
            dispatches=stats.dispatches,
            steals=stats.steals,
            stolen_cells=stats.stolen_cells,
            queue_depth=scheduler._queue_depth(),
            eta_s=scheduler.eta_s(),
            wall_s=round(wall_s, 6),
            ship_dropped=self.obs.dropped,
            ship_records=self.obs.absorbed,
            workers=[
                {
                    "wid": w.wid,
                    "pid": w.pid,
                    "cells": w.cells,
                    "busy_s": round(w.busy_s, 6),
                    "stolen_cells": w.stolen_cells,
                    "respawns": w.respawns,
                    "utilization": round(w.utilization(wall_s), 4),
                }
                for w in (
                    stats.workers
                    or [wk.stats for wk in scheduler.pool.workers]
                )
            ],
        )

    # ------------------------------------------------------------- api
    def run_cells(self, specs: Sequence[CellSpec]) -> list:
        """Execute ``specs``; returns results in submission order."""
        specs = list(specs)
        faults = get_faults()
        if faults.enabled and faults.active:
            # Fault-injected runs bypass the engine entirely: pool
            # workers don't inherit the ambient injector (results would
            # silently diverge from serial), and faulted results must
            # never land in the content-addressed store (the cell key
            # doesn't encode the fault plan, so a later clean run would
            # read back a poisoned entry).
            self._total += len(specs)
            results = []
            for spec in specs:
                t0 = time.perf_counter()
                result = self.run_fn(spec)
                self.journal.cell(
                    cell_key(spec),
                    cell_label(spec),
                    "faulted",
                    time.perf_counter() - t0,
                    backend="serial",
                )
                self._trace_cell(spec, "faulted", time.perf_counter() - t0)
                self._tick()
                results.append(result)
            self._finish_progress()
            return results
        keys = [cell_key(s) for s in specs]
        results: list = [None] * len(specs)
        self._total += len(specs)

        todo: list[int] = []  # first occurrence of each uncached key
        dups: dict[int, int] = {}  # duplicate index -> first index
        first: dict[str, int] = {}
        for i, (key, spec) in enumerate(zip(keys, specs)):
            if key in first:
                dups[i] = first[key]
                continue
            t0 = time.perf_counter()
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                results[i] = cached
                wall_s = time.perf_counter() - t0
                self.journal.cell(key, cell_label(spec), "hit", wall_s)
                self._trace_cell(spec, "hit", wall_s)
                self._tick()
                continue
            first[key] = i
            todo.append(i)

        # single-flight: lease what we will compute; cells leased by a
        # concurrent campaign sharing the store are observed instead
        waiting: list[int] = []
        if self.store is not None and todo:
            owned: list[int] = []
            for i in todo:
                lease = self.store.try_lease(keys[i])
                if lease is None:
                    waiting.append(i)
                else:
                    self._leases[keys[i]] = lease
                    owned.append(i)
            todo = owned

        self.journal.scheduled([keys[i] for i in todo])
        try:
            if todo:
                if self.jobs > 1 and len(todo) > 1:
                    self._run_pool(specs, keys, todo, results)
                else:
                    for i in todo:
                        results[i] = self._run_serial(specs[i], keys[i])
            for i in waiting:
                results[i] = self._await_inflight(specs[i], keys[i])
        finally:
            self._release_leases()

        for i, j in dups.items():
            results[i] = results[j]
            self.journal.cell(keys[i], cell_label(specs[i]), "dup", 0.0)
            self._trace_cell(specs[i], "dup", 0.0)
            self._tick()
        self._finish_progress()
        return results

    # ------------------------------------------------------- internals
    def _release_lease(self, key: str) -> None:
        lease = self._leases.pop(key, None)
        if lease is not None:
            lease.release()

    def _release_leases(self) -> None:
        for key in list(self._leases):
            self._release_lease(key)

    def _await_inflight(self, spec: CellSpec, key: str):
        """Resolve a cell another campaign is computing right now."""
        t0 = time.perf_counter()
        result = self.store.wait_for(key)
        wall_s = time.perf_counter() - t0
        if result is not None:
            self.journal.cell(
                key, cell_label(spec), "hit", wall_s, via="single-flight"
            )
            self._trace_cell(spec, "hit", wall_s)
            self._tick()
            return result
        # the other campaign died before committing: claim and compute
        lease = self.store.try_lease(key)
        if lease is not None:
            self._leases[key] = lease
        return self._run_serial(spec, key)

    def _complete(
        self, spec, key, result, wall_s, status, backend, worker, tid=0
    ):
        if self.store is not None:
            self.store.put(key, result)
        self._release_lease(key)
        self.journal.cell(
            key,
            cell_label(spec),
            status,
            wall_s,
            backend=backend,
            worker=worker,
        )
        self._trace_cell(spec, status, wall_s, tid=tid)
        self._tick()

    def _run_pool(self, specs, keys, todo, results) -> None:
        """Scheduled fan-out over the warm pool; see the module doc."""
        if self._pool_broken:
            for i in todo:
                results[i] = self._run_serial(specs[i], keys[i])
            return
        scheduler = self._ensure_scheduler()
        retry: list[int] = []  # indices to re-run in-process
        self._batch_t0 = time.perf_counter()
        try:
            outcomes = scheduler.run(
                [specs[i] for i in todo],
                timeout_s=self.timeout_s,
                ship=self.obs.wanted(),
            )
            for outcome in outcomes:
                i = todo[outcome.task_id]
                spec, key = specs[i], keys[i]
                if outcome.telemetry is not None:
                    # merge the worker's shipped records before the
                    # cell's own campaign-lane span, so the journal
                    # reads in causal order
                    self.obs.absorb(
                        outcome.telemetry,
                        cell_label=cell_label(spec),
                        cell_key=key,
                    )
                if outcome.status == "ok":
                    self._complete(
                        spec,
                        key,
                        outcome.result,
                        outcome.wall_s,
                        "done",
                        "pool",
                        outcome.worker,
                        tid=outcome.wid + 1 if outcome.wid >= 0 else 0,
                    )
                    results[i] = outcome.result
                    self._journal_sched_stats()
                    continue
                status = {"error": "error", "timeout": "timeout"}.get(
                    outcome.status, "error"
                )
                extra = {"error": outcome.error} if outcome.error else {}
                if outcome.status == "lost":
                    self.journal.event(
                        "worker-lost", worker=outcome.worker, key=key
                    )
                self.journal.cell(
                    key,
                    cell_label(spec),
                    status,
                    outcome.wall_s,
                    backend="pool",
                    worker=outcome.worker,
                    **extra,
                )
                self._journal_sched_stats()
                retry.append(i)
            self._journal_sched_stats(final=True)
        except SchedulerUnavailable as exc:
            # restricted env: no fork/pipes/semaphores — never try again
            self._pool_broken = True
            self.journal.event("pool-unavailable", error=repr(exc))
            self.close()
            for i in todo:
                if results[i] is None:
                    results[i] = self._run_serial(specs[i], keys[i])
            return
        for i in retry:
            results[i] = self._run_serial(specs[i], keys[i], attempt=2)

    def _run_serial(self, spec: CellSpec, key: str, attempt: int = 1):
        """In-process execution with bounded retry.

        ``attempt`` numbers continue across backends: a cell that
        failed once in the pool arrives here with ``attempt=2``.
        """
        last_exc: Exception | None = None
        label = cell_label(spec)
        for n in range(attempt, self.retries + 2):
            t0 = time.perf_counter()
            try:
                result = self.run_fn(spec)
            except Exception as exc:
                last_exc = exc
                self.journal.cell(
                    key,
                    label,
                    "error",
                    time.perf_counter() - t0,
                    attempt=n,
                    error=repr(exc),
                )
                continue
            self._complete(
                spec,
                key,
                result,
                time.perf_counter() - t0,
                "done" if n == 1 else "retried",
                "serial",
                os.getpid(),
            )
            return result
        self._release_lease(key)
        self.journal.cell(key, label, "failed", 0.0, attempt=self.retries + 1)
        raise CellFailure(
            f"cell {label} failed after {self.retries + 1} attempt(s)"
        ) from last_exc

    # ------------------------------------------------------- progress
    def _tick(self) -> None:
        self._done += 1
        if not self.progress:
            return
        c = self.journal.counts
        eta = ""
        if self._scheduler is not None:
            eta_s = self._scheduler.eta_s()
            if eta_s:
                eta = f" · eta {eta_s:.0f}s"
        sys.stderr.write(
            f"\r[campaign] {self._done}/{self._total} cells"
            f" · {c['hits']} cached · {c['misses']} run"
            f" · {c['errors'] + c['timeouts']} faults{eta}"
        )
        sys.stderr.flush()

    def _finish_progress(self) -> None:
        if self.progress and self._done:
            sys.stderr.write("\n")
            sys.stderr.flush()


# ---------------------------------------------------------------------
# ambient engine: what the experiment runner submits through
_default_engine: CampaignEngine | None = None
_current_engine: CampaignEngine | None = None


def get_engine() -> CampaignEngine:
    """The engine in effect: the :func:`use_engine` scope's engine, or
    a process-wide default (serial, uncached, counters-only journal)."""
    global _default_engine
    if _current_engine is not None:
        return _current_engine
    if _default_engine is None:
        _default_engine = CampaignEngine()
    return _default_engine


@contextlib.contextmanager
def use_engine(engine: CampaignEngine):
    """Route all runner submissions through ``engine`` for the scope."""
    global _current_engine
    previous = _current_engine
    _current_engine = engine
    try:
        yield engine
    finally:
        _current_engine = previous
