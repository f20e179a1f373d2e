"""Longest-first cell dispatch over a warm worker pool.

Every figure is a sweep of independent, seed-determined cells, so the
order a pool runs them in cannot change a result; it only decides when
the last cell finishes. :meth:`WorkerPool.run` keeps one global queue,
sorted by :func:`~repro.campaign.cells.cell_units` descending (a stable
sort, so submission order breaks ties), and hands the next single cell
to whichever worker is alive and idle: greedy LPT list scheduling.
Nothing is pre-placed, so a mispredicted cell only delays its own
worker, and each worker has at most one cell in flight, so parent
memory stays bounded however large the sweep.

The pool itself is what ``ProcessPoolExecutor`` lacks:

* **persistent** workers, spawned once per engine and kept warm across
  batches, each wired to the parent by a private pair of pipes so one
  crashing worker can never corrupt a sibling's result stream;
* a per-cell timeout that kills a hung worker and respawns its slot in
  place, and ``lost`` outcomes for a worker that dies mid-cell;
* a parent-death watchdog in every worker, so a SIGKILLed campaign
  never strands workers holding inherited ``flock`` leases;
* telemetry shipped back on each cell's own result frame.

Per-worker utilization, queue depth and a ratio ETA are exposed as
:class:`SchedulerStats` and mirrored into the ambient
:mod:`repro.metrics` registry.
"""

from __future__ import annotations

import atexit
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Iterator, Sequence

from repro.campaign.cells import CellSpec, cell_units
from repro.metrics import get_metrics

__all__ = [
    "SchedulerStats",
    "SchedulerUnavailable",
    "TaskOutcome",
    "WorkerPool",
    "WorkerStats",
    "dispatch_order",
]

#: a slot that hangs or dies is respawned at most this many times per
#: worker in one batch; past that the queue goes to the serial fallback
RESPAWNS_PER_WORKER = 2
#: poll interval while waiting for worker messages
POLL_S = 0.05


#: pools not yet shut down: one exit hook shuts them all down, so a shut
#: pool is neither kept alive nor leaves a hook of its own behind
_open_pools: set[WorkerPool] = set()


@atexit.register
def _shutdown_open_pools() -> None:
    for pool in list(_open_pools):
        pool.shutdown()


class SchedulerUnavailable(RuntimeError):
    """The worker pool cannot run here (no fork/pipes/semaphores)."""


def dispatch_order(specs: Sequence[CellSpec]) -> list[int]:
    """Indices of ``specs`` in dispatch order: longest
    :func:`cell_units` first, ties in submission order."""
    units = [cell_units(spec) for spec in specs]
    return sorted(range(len(specs)), key=units.__getitem__, reverse=True)


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one dispatched cell.

    ``task_id`` is the cell's index in the submitted batch. ``status``:
    ``ok`` (result present), ``error`` (the cell raised in the worker),
    ``timeout`` (no result within ``timeout_s``; the worker was
    killed), ``lost`` (the worker died mid-cell).

    ``wid`` is the worker *slot* (stable across respawns; ``-1`` when
    no worker ran the cell); ``worker`` is the executing pid where
    known. ``telemetry`` is the shipped tracer-record batch the worker
    piggybacked on this result frame (None when the batch was not
    shipped or the cell emitted nothing) — see :mod:`repro.obs.ship`.
    """

    task_id: int
    status: str
    worker: int
    wall_s: float = 0.0
    result: object = None
    error: str = ""
    wid: int = -1
    telemetry: dict | None = None


@dataclass
class WorkerStats:
    """Per-worker accounting over one batch."""

    wid: int
    pid: int | None = None
    cells: int = 0
    busy_s: float = 0.0
    respawns: int = 0

    def utilization(self, wall_s: float) -> float:
        return self.busy_s / wall_s if wall_s > 0 else 0.0


@dataclass
class SchedulerStats:
    """One batch's scheduling telemetry (also mirrored into metrics)."""

    n_workers: int = 0
    dispatches: int = 0
    wall_s: float = 0.0
    workers: list[WorkerStats] = field(default_factory=list)

    def utilization(self) -> float:
        """Mean fraction of the batch each worker spent executing cells."""
        if not self.workers or self.wall_s <= 0:
            return 0.0
        busy = sum(w.busy_s for w in self.workers)
        return busy / (self.wall_s * len(self.workers))


# ---------------------------------------------------------------------------
# worker process


def _worker_main(
    wid: int,
    run_fn: Callable,
    conn_in,
    conn_out,
    parent_pid: int,
) -> None:
    """Worker loop: receive ``(task_id, spec, ship)``, execute the
    cell, send one result frame back.

    The parent sets ``ship`` when someone will consume worker records
    (see :meth:`repro.obs.merge.TelemetryMux.wanted`). A shipped cell
    runs under a tracer bound to a bounded
    :class:`~repro.obs.ship.ShippingSink`, built on the first such
    cell; the drained batch rides the cell's own result frame (no extra
    pipe traffic), and the parent's
    :class:`~repro.obs.merge.TelemetryMux` re-stamps it into the
    campaign-wide stream. Unshipped cells run with the null tracer.

    The loop polls rather than blocking in ``recv`` so it can notice a
    dead parent. Pipe EOF alone is not a reliable death signal under
    fork: sibling workers (and the worker itself) inherit duplicate
    parent-side pipe fds, so the write end may outlive the parent.
    Worse, a worker forked while the parent held cell leases inherits
    those ``flock`` fds — if it lingers after a SIGKILLed parent, the
    leases stay locked and a resumed campaign wedges in ``wait_for``.
    Exiting on re-parenting closes every inherited fd and releases the
    locks (pinned by ``test_sigkill_of_parent_reaps_pool_workers``).

    ``parent_pid`` comes from the parent's ``os.getpid()`` at spawn time:
    capturing ``os.getppid()`` here instead would race with parent death —
    a worker whose parent is killed before this line runs would record the
    reaper's pid and never notice the orphaning.
    """
    from repro.obs.ship import ShippingSink
    from repro.telemetry import Tracer, use_tracer

    #: built on the first shipped cell; unshipped cells run untraced
    shipping: tuple[Tracer, ShippingSink] | None = None
    while True:
        try:
            if not conn_in.poll(0.5):
                if os.getppid() != parent_pid:
                    return  # orphaned: parent died without shutdown
                continue
            msg = conn_in.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, spec, ship = msg
        if ship and shipping is None:
            sink = ShippingSink(wid=wid)
            shipping = (Tracer(sink), sink)
        active = shipping if ship else None
        t0 = time.perf_counter()
        try:
            if active is not None:
                with use_tracer(active[0]):
                    result = run_fn(spec)
            else:
                result = run_fn(spec)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            kind, payload = "error", repr(exc)
        else:
            kind, payload = "ok", result
        batch = active[1].drain() if active is not None else None
        try:
            conn_out.send(
                (kind, wid, task_id, payload, time.perf_counter() - t0, batch)
            )
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle: process + private pipes + the cell in flight."""

    __slots__ = (
        "wid",
        "proc",
        "conn_send",
        "conn_recv",
        "task",
        "sent_at",
        "stats",
    )

    def __init__(self, wid: int) -> None:
        self.wid = wid
        # process/pipe handles live only while the slot is running; the
        # concrete types come from the multiprocessing context at spawn
        self.proc: Any = None
        self.conn_send: Any = None
        self.conn_recv: Any = None
        #: batch index of the cell dispatched to this worker, if any
        self.task: int | None = None
        #: when that cell was sent (the per-cell timeout runs from here)
        self.sent_at = 0.0
        self.stats = WorkerStats(wid=wid)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def close(self) -> None:
        for conn in (self.conn_send, self.conn_recv):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.conn_send = self.conn_recv = None


class WorkerPool:
    """A warm, persistent pool of cell-executing worker processes.

    The pool survives across batches, so process spawn cost is paid
    once per engine, and each worker has private result pipes, so a
    killed or crashed worker is contained: its sibling streams keep
    working and the slot is respawned in place.
    """

    def __init__(
        self,
        n_workers: int,
        run_fn: Callable,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.run_fn = run_fn
        #: stats of the latest batch; a new object per :meth:`run`
        self.stats: SchedulerStats | None = None
        self._workers: list[_Worker] = []
        self._mp: Any = None  # multiprocessing context, set on first start
        self._started = False
        self._closed = False
        # the current batch: cell units, undispatched indices and the
        # busy seconds / units of the cells completed so far
        self._units: list[float] = []
        self._queue: deque[int] = deque()
        self._busy_s = 0.0
        self._units_done = 0.0
        _open_pools.add(self)

    # ------------------------------------------------------------ state
    @property
    def workers(self) -> list[_Worker]:
        return self._workers

    @property
    def queue_depth(self) -> int:
        """Cells of the current batch not yet dispatched."""
        return len(self._queue)

    def eta_s(self) -> float | None:
        """Wall seconds to drain the batch: remaining units x (busy
        seconds / units completed this batch) / workers. None before
        the batch's first completion."""
        if self._units_done <= 0.0:
            return None
        units = self._units
        remaining = sum(units[i] for i in self._queue) + sum(
            units[w.task] for w in self._workers if w.task is not None
        )
        return remaining * (self._busy_s / self._units_done) / self.n_workers

    def ensure_started(self) -> None:
        """Spawn the workers (idempotent). Raises
        :class:`SchedulerUnavailable` in restricted environments."""
        if self._closed:
            raise SchedulerUnavailable("pool already shut down")
        if self._started:
            return
        try:
            import multiprocessing as mp

            self._mp = mp.get_context()
            self._workers = [_Worker(wid) for wid in range(self.n_workers)]
            for worker in self._workers:
                self._spawn(worker)
        except SchedulerUnavailable:
            raise
        except Exception as exc:  # no fork/pipes/semaphores here
            self.shutdown()
            raise SchedulerUnavailable(repr(exc)) from exc
        self._started = True

    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker slot with fresh private pipes."""
        worker.close()
        # Pipe(duplex=False) returns (recv_end, send_end)
        inbox_recv, inbox_send = self._mp.Pipe(duplex=False)
        outbox_recv, outbox_send = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_worker_main,
            args=(
                worker.wid,
                self.run_fn,
                inbox_recv,
                outbox_send,
                os.getpid(),
            ),
            daemon=True,
            name=f"campaign-worker-{worker.wid}",
        )
        proc.start()
        # close the child's ends in the parent so a dead worker reads
        # as EOF on its outbox instead of hanging connection.wait
        inbox_recv.close()
        outbox_send.close()
        worker.conn_send = inbox_send
        worker.conn_recv = outbox_recv
        worker.proc = proc
        worker.task = None
        worker.stats.pid = proc.pid

    def respawn(self, worker: _Worker) -> None:
        """Kill (if needed) and restart one slot; a cell in flight is
        the caller's to re-handle."""
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        self._spawn(worker)
        worker.stats.respawns += 1

    def shutdown(self) -> None:
        """Stop every worker; safe to call repeatedly."""
        _open_pools.discard(self)
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                if worker.conn_send is not None and worker.alive:
                    worker.conn_send.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            if worker.proc is not None:
                worker.proc.join(timeout=1.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
            worker.close()
        self._started = False

    # ------------------------------------------------------------ batch
    def run(
        self,
        specs: Sequence[CellSpec],
        timeout_s: float | None = None,
        ship: bool = False,
    ) -> Iterator[TaskOutcome]:
        """Run ``specs`` longest first; yield one :class:`TaskOutcome`
        per spec as cells complete (completion order, not submission
        order). With ``ship`` set, workers return each cell's telemetry
        batch.

        Raises :class:`SchedulerUnavailable` before yielding anything
        when no pool can be started — callers fall back to serial.
        """
        self.ensure_started()
        metrics = get_metrics()
        workers = self._workers
        stats = self.stats = SchedulerStats(n_workers=self.n_workers)
        for worker in workers:
            worker.stats = WorkerStats(
                wid=worker.wid,
                pid=worker.proc.pid if worker.proc is not None else None,
            )
        self._units = [cell_units(spec) for spec in specs]
        self._queue = deque(dispatch_order(specs))
        self._busy_s = self._units_done = 0.0
        queue = self._queue
        respawns_left = RESPAWNS_PER_WORKER * self.n_workers
        pending = len(specs)
        t_start = time.perf_counter()

        try:
            while pending > 0:
                for worker in workers:
                    if queue and worker.task is None and worker.alive:
                        task_id = queue.popleft()
                        worker.conn_send.send((task_id, specs[task_id], ship))
                        worker.task = task_id
                        worker.sent_at = time.perf_counter()
                        stats.dispatches += 1
                        metrics.counter("campaign.sched.dispatches").inc()
                        metrics.gauge("campaign.sched.queue_depth").set(
                            len(queue)
                        )
                conns = {
                    worker.conn_recv: worker
                    for worker in workers
                    if worker.conn_recv is not None and worker.task is not None
                }
                if not conns:
                    if not queue:
                        # nothing in flight, nothing to dispatch: every
                        # remaining cell was on a worker we gave up on
                        break
                    if not any(w.alive for w in workers):
                        # respawn budget exhausted with work remaining:
                        # surrender the queue to the serial fallback
                        while queue:
                            pending -= 1
                            yield TaskOutcome(
                                task_id=queue.popleft(),
                                status="lost",
                                worker=-1,
                                error="no live workers",
                            )
                        break
                    continue
                ready = connection.wait(list(conns), timeout=POLL_S)
                now = time.perf_counter()
                for conn in ready:
                    worker = conns[conn]
                    try:
                        kind, wid, task_id, payload, wall_s, telemetry = (
                            conn.recv()
                        )
                    except Exception:
                        continue  # death handled by liveness sweep below
                    worker.task = None
                    worker.stats.cells += 1
                    worker.stats.busy_s += wall_s
                    self._busy_s += wall_s
                    self._units_done += self._units[task_id]
                    pending -= 1
                    yield TaskOutcome(
                        task_id=task_id,
                        status="ok" if kind == "ok" else "error",
                        worker=worker.stats.pid or wid,
                        wall_s=wall_s,
                        result=payload if kind == "ok" else None,
                        error="" if kind == "ok" else payload,
                        wid=worker.wid,
                        telemetry=telemetry,
                    )
                # liveness + timeout sweep
                for worker in workers:
                    task_id = worker.task
                    if task_id is None:
                        continue
                    hung = (
                        timeout_s is not None
                        and now - worker.sent_at > timeout_s
                    )
                    if not worker.alive or hung:
                        status = "lost" if not worker.alive else "timeout"
                        worker.task = None
                        pending -= 1
                        if respawns_left > 0:
                            respawns_left -= 1
                            self.respawn(worker)
                        elif worker.alive:
                            # over budget: kill the hung worker so no
                            # further cells land on it
                            worker.proc.kill()
                            worker.proc.join(timeout=5.0)
                            worker.close()
                        yield TaskOutcome(
                            task_id=task_id,
                            status=status,
                            worker=worker.wid,
                            error=f"worker {worker.wid} {status}",
                        )
                eta = self.eta_s()
                if eta is not None:
                    metrics.gauge("campaign.sched.eta_s").set(eta)
        finally:
            stats.wall_s = time.perf_counter() - t_start
            stats.workers = [w.stats for w in workers]
            if stats.wall_s > 0:
                for w in workers:
                    metrics.gauge(
                        f"campaign.sched.worker{w.wid}.utilization"
                    ).set(w.stats.utilization(stats.wall_s))
            metrics.gauge("campaign.sched.queue_depth").set(0)
