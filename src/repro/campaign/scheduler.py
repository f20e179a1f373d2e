"""Cost-model-informed work-stealing scheduler over a warm worker pool.

The first campaign engine fanned cells out with a one-shot
``ProcessPoolExecutor.map``: FIFO order, a fresh pool per batch, no
visibility into worker skew. Real sweeps are skewed — a 1024-node
Table 1 cell costs orders of magnitude more than an 8-node smoke cell —
so FIFO routinely parks the longest cell on the last idle worker and
stretches the campaign's tail (the slack COUNTDOWN-style schedulers
exploit). This module replaces it with:

* a :class:`CostModel` that ranks cells by an a-priori cost estimate
  (Verlet steps x nodes x analyses) and calibrates a units->seconds
  scale from observed wall times (EWMA), giving longest-first order
  and a live ETA;
* a :class:`WorkerPool` of **persistent** worker processes — spawned
  once per engine, kept warm across batches, each wired to the parent
  by a private pair of pipes so one crashing worker can never corrupt
  a sibling's result stream;
* a :class:`WorkStealingScheduler` that assigns cells to per-worker
  queues longest-first (LPT), dispatches **adaptive chunks** (large
  while queues are deep to amortize IPC, shrinking to single cells near
  the tail), keeps at most one chunk in flight per worker
  (backpressure: memory stays bounded no matter how large the sweep),
  and lets an idle worker **steal** from the most loaded sibling's
  cheap end;
* per-worker utilization, steal counts, queue depth and ETA, exposed
  as :class:`SchedulerStats` and mirrored into the ambient
  :mod:`repro.metrics` registry.

The scheduler only *orders and places* work — cells stay deterministic,
so any schedule yields bit-identical results (pinned by the tests).
"""

from __future__ import annotations

import atexit
import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Iterator, Sequence

from repro.campaign.cells import CellSpec, cell_units
from repro.metrics import get_metrics

__all__ = [
    "CostModel",
    "SchedulerStats",
    "SchedulerUnavailable",
    "Task",
    "TaskOutcome",
    "WorkerPool",
    "WorkStealingScheduler",
    "WorkerStats",
]


class SchedulerUnavailable(RuntimeError):
    """The worker pool cannot run here (no fork/pipes/semaphores)."""


# ---------------------------------------------------------------------------
# cost model


class CostModel:
    """A-priori cell cost in abstract units, calibrated to seconds.

    ``estimate`` must be cheap and deterministic — it only has to *rank*
    cells well enough for longest-first placement. ``observe`` feeds
    measured wall times back in; after the first observation
    ``predict_s`` turns remaining units into an ETA.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: EWMA of seconds per unit (None until first observation)
        self.scale: float | None = None
        self.observations = 0

    def estimate(self, spec: CellSpec) -> float:
        """Relative cost of ``spec`` in abstract units (> 0)."""
        return cell_units(spec)

    def observe(self, units: float, wall_s: float) -> None:
        """Calibrate with one measured ``(units, wall_s)`` sample."""
        if units <= 0.0 or wall_s < 0.0:
            return
        sample = wall_s / units
        if self.scale is None:
            self.scale = sample
        else:
            self.scale += self.alpha * (sample - self.scale)
        self.observations += 1

    def predict_s(self, units: float) -> float | None:
        """Wall-second prediction for ``units``, or None uncalibrated."""
        if self.scale is None:
            return None
        return units * self.scale


# ---------------------------------------------------------------------------
# tasks and outcomes


@dataclass(frozen=True)
class Task:
    """One schedulable cell: an opaque id, its spec, its cost units."""

    task_id: int
    spec: CellSpec
    cost: float


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one dispatched task.

    ``status``: ``ok`` (result present), ``error`` (the cell raised in
    the worker), ``timeout`` (no progress within ``timeout_s``; the
    worker was killed), ``lost`` (the worker died mid-cell).

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
    """Per-worker accounting over one scheduler run."""

    wid: int
    pid: int | None = None
    cells: int = 0
    busy_s: float = 0.0
    stolen_cells: int = 0
    respawns: int = 0

    def utilization(self, wall_s: float) -> float:
        return self.busy_s / wall_s if wall_s > 0 else 0.0


@dataclass
class SchedulerStats:
    """One run's scheduling telemetry (also mirrored into metrics)."""

    n_workers: int = 0
    dispatches: int = 0
    steals: int = 0
    stolen_cells: int = 0
    max_queue_depth: int = 0
    wall_s: float = 0.0
    workers: list[WorkerStats] = field(default_factory=list)

    def utilization(self) -> float:
        """Mean fraction of the run each worker spent executing cells."""
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
    """Worker loop: receive ``(chunk_id, [(task_id, spec), ...], ship)``,
    execute each cell, stream one message back per cell.

    The parent sets ``ship`` when someone will consume worker records
    (see :meth:`repro.obs.merge.TelemetryMux.wanted`). Cells of a
    shipped chunk run under a tracer bound to a bounded
    :class:`~repro.obs.ship.ShippingSink`, built on the first such
    chunk; the drained batch rides the cell's own result frame (no
    extra pipe traffic), and the parent's
    :class:`~repro.obs.merge.TelemetryMux` re-stamps it into the
    campaign-wide stream. Unshipped chunks run with the null tracer.

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

    #: built on the first shipped chunk; unshipped chunks run untraced
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
        _chunk_id, items, ship = msg
        if ship and shipping is None:
            sink = ShippingSink(wid=wid)
            shipping = (Tracer(sink), sink)
        active = shipping if ship else None
        for task_id, spec in items:
            t0 = time.perf_counter()
            try:
                if active is not None:
                    with use_tracer(active[0]):
                        result = run_fn(spec)
                else:
                    result = run_fn(spec)
            except BaseException as exc:  # noqa: BLE001 - forwarded to parent
                batch = active[1].drain() if active is not None else None
                payload = (
                    "error",
                    wid,
                    task_id,
                    repr(exc),
                    time.perf_counter() - t0,
                    batch,
                )
            else:
                batch = active[1].drain() if active is not None else None
                payload = (
                    "ok",
                    wid,
                    task_id,
                    result,
                    time.perf_counter() - t0,
                    batch,
                )
            try:
                conn_out.send(payload)
            except (BrokenPipeError, OSError):
                return


class _Worker:
    """Parent-side handle: process + private pipes + dispatch state."""

    __slots__ = (
        "wid",
        "proc",
        "conn_send",
        "conn_recv",
        "outstanding",
        "last_activity",
        "stats",
    )

    def __init__(self, wid: int) -> None:
        self.wid = wid
        # process/pipe handles live only while the slot is running; the
        # concrete types come from the multiprocessing context at spawn
        self.proc: Any = None
        self.conn_send: Any = None
        self.conn_recv: Any = None
        #: task_id -> Task currently dispatched to this worker
        self.outstanding: dict[int, Task] = {}
        self.last_activity = 0.0
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

    Unlike ``ProcessPoolExecutor`` the pool survives across batches
    (campaigns are many small batches — one per data point — and
    process spawn cost would otherwise dominate short cells), and each
    worker has private result pipes, so a killed or crashed worker is
    contained: its sibling streams keep working and the slot is
    respawned in place.
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
        self._workers: list[_Worker] = []
        self._mp: Any = None  # multiprocessing context, set on first start
        self._started = False
        self._closed = False
        self._chunk_ids = itertools.count()
        atexit.register(self.shutdown)

    # ------------------------------------------------------------ state
    @property
    def workers(self) -> list[_Worker]:
        return self._workers

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
        worker.outstanding = {}
        worker.last_activity = time.perf_counter()
        worker.stats.pid = proc.pid

    def respawn(self, worker: _Worker) -> None:
        """Kill (if needed) and restart one slot; outstanding tasks are
        the caller's to re-handle."""
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        self._spawn(worker)
        worker.stats.respawns += 1

    def dispatch(
        self, worker: _Worker, tasks: Sequence[Task], ship: bool = False
    ) -> None:
        """Send one chunk; ``ship`` asks the worker for its telemetry."""
        chunk_id = next(self._chunk_ids)
        worker.conn_send.send(
            (chunk_id, [(t.task_id, t.spec) for t in tasks], ship)
        )
        now = time.perf_counter()
        worker.last_activity = now
        for t in tasks:
            worker.outstanding[t.task_id] = t

    def shutdown(self) -> None:
        """Stop every worker; safe to call repeatedly."""
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


# ---------------------------------------------------------------------------
# the scheduler


class WorkStealingScheduler:
    """Longest-first placement + adaptive chunking + work stealing.

    ``longest_first=False, steal=False, static_chunks=True`` degrades
    to the classic one-shot FIFO/static split — kept as the measured
    baseline for the scale-out benchmark, not for production use.
    """

    #: never dispatch more than this many cells in one chunk
    MAX_CHUNK = 8
    #: poll interval while waiting for worker messages
    POLL_S = 0.05

    def __init__(
        self,
        pool: WorkerPool,
        cost_model: CostModel | None = None,
        longest_first: bool = True,
        steal: bool = True,
        static_chunks: bool = False,
        max_respawns: int | None = None,
    ) -> None:
        self.pool = pool
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.longest_first = longest_first
        self.steal = steal
        self.static_chunks = static_chunks
        self.max_respawns = (
            max_respawns if max_respawns is not None else 2 * pool.n_workers
        )
        self.stats = SchedulerStats()
        self._queues: list[deque[Task]] = []

    # ------------------------------------------------------------ public
    def run(
        self,
        specs: Sequence[CellSpec],
        timeout_s: float | None = None,
        ship: bool = False,
    ) -> Iterator[TaskOutcome]:
        """Schedule ``specs``; yield one :class:`TaskOutcome` per spec
        as cells complete (completion order, not submission order).
        With ``ship`` set, workers return each cell's telemetry batch.

        Raises :class:`SchedulerUnavailable` before yielding anything
        when no pool can be started — callers fall back to serial.
        """
        self.pool.ensure_started()
        tasks = [
            Task(i, spec, self.cost_model.estimate(spec))
            for i, spec in enumerate(specs)
        ]
        yield from self._run(tasks, timeout_s, ship)

    def eta_s(self) -> float | None:
        """Predicted wall seconds to drain the remaining queue."""
        remaining = sum(t.cost for q in self._queues for t in q)
        for worker in self.pool.workers:
            remaining += sum(t.cost for t in worker.outstanding.values())
        if remaining <= 0.0:
            return 0.0
        per_worker = remaining / max(1, self.pool.n_workers)
        return self.cost_model.predict_s(per_worker)

    # ---------------------------------------------------------- internals
    def _assign(self, tasks: Sequence[Task]) -> None:
        """Fill the per-worker queues.

        Longest-first: sort descending by cost, place each task on the
        currently lightest queue (LPT). FIFO baseline: contiguous
        blocks in submission order (what a one-shot ``map`` does).
        """
        n = self.pool.n_workers
        self._queues = [deque() for _ in range(n)]
        if self.longest_first:
            loads = [0.0] * n
            for task in sorted(tasks, key=lambda t: -t.cost):
                slot = loads.index(min(loads))
                self._queues[slot].append(task)
                loads[slot] += task.cost
        else:
            block = max(1, -(-len(tasks) // n))
            for slot in range(n):
                for task in tasks[slot * block : (slot + 1) * block]:
                    self._queues[slot].append(task)

    def _chunk_size(self, queue_len: int) -> int:
        """Guided sizing: big chunks while the queue is deep (amortize
        IPC), single cells near the tail (keep stealing effective)."""
        if self.static_chunks:
            return max(1, queue_len)
        return max(1, min(self.MAX_CHUNK, queue_len // 4))

    def _take_chunk(self, slot: int) -> list[Task]:
        """Next chunk for worker ``slot``: own queue first, else steal
        from the most loaded sibling's cheap end."""
        own = self._queues[slot]
        if not own and self.steal:
            victim_slot, victim = max(
                enumerate(self._queues),
                key=lambda sq: sum(t.cost for t in sq[1]),
            )
            if victim and victim_slot != slot:
                n_steal = max(1, len(victim) // 2)
                n_steal = min(n_steal, self.MAX_CHUNK)
                stolen = [victim.pop() for _ in range(n_steal)]
                self.stats.steals += 1
                self.stats.stolen_cells += len(stolen)
                if slot < len(self.pool.workers):
                    self.pool.workers[slot].stats.stolen_cells += len(stolen)
                get_metrics().counter("campaign.sched.steals").inc()
                get_metrics().counter("campaign.sched.stolen_cells").inc(
                    len(stolen)
                )
                return stolen
        chunk: list[Task] = []
        for _ in range(self._chunk_size(len(own))):
            if not own:
                break
            chunk.append(own.popleft())
        return chunk

    def _queue_depth(self) -> int:
        return sum(len(q) for q in self._queues)

    def _run(
        self, tasks: Sequence[Task], timeout_s: float | None, ship: bool
    ) -> Iterator[TaskOutcome]:
        metrics = get_metrics()
        pool = self.pool
        workers = pool.workers
        self.stats = SchedulerStats(n_workers=pool.n_workers)
        for worker in workers:
            worker.stats = WorkerStats(
                wid=worker.wid,
                pid=worker.proc.pid if worker.proc is not None else None,
            )
        self._assign(tasks)
        self.stats.max_queue_depth = self._queue_depth()
        respawns_left = self.max_respawns
        pending = len(tasks)
        t_start = time.perf_counter()

        def dispatch_idle() -> None:
            for worker in workers:
                if worker.outstanding or not worker.alive:
                    continue
                chunk = self._take_chunk(worker.wid)
                if not chunk:
                    continue
                pool.dispatch(worker, chunk, ship)
                self.stats.dispatches += 1
                metrics.counter("campaign.sched.dispatches").inc()
                metrics.histogram("campaign.sched.chunk_cells").observe(
                    len(chunk)
                )
                metrics.gauge("campaign.sched.queue_depth").set(
                    self._queue_depth()
                )

        def fail_outstanding(worker: _Worker, status: str) -> list[TaskOutcome]:
            outcomes = [
                TaskOutcome(
                    task_id=t.task_id,
                    status=status,
                    worker=worker.wid,
                    error=f"worker {worker.wid} {status}",
                )
                for t in worker.outstanding.values()
            ]
            worker.outstanding = {}
            return outcomes

        try:
            while pending > 0:
                dispatch_idle()
                conns = {
                    worker.conn_recv: worker
                    for worker in workers
                    if worker.conn_recv is not None and worker.outstanding
                }
                if not conns:
                    if self._queue_depth() == 0:
                        # nothing in flight, nothing to dispatch: every
                        # remaining task was on a worker we gave up on
                        break
                    if not any(w.alive for w in workers):
                        # respawn budget exhausted with work remaining:
                        # surrender the queue to the serial fallback
                        for queue in self._queues:
                            while queue:
                                task = queue.popleft()
                                pending -= 1
                                yield TaskOutcome(
                                    task_id=task.task_id,
                                    status="lost",
                                    worker=-1,
                                    error="no live workers",
                                )
                        break
                    continue
                ready = connection.wait(list(conns), timeout=self.POLL_S)
                now = time.perf_counter()
                for conn in ready:
                    worker = conns[conn]
                    try:
                        msg = conn.recv()
                        kind, wid, task_id, payload, wall_s, telemetry = msg
                    except Exception:
                        continue  # death handled by liveness sweep below
                    task = worker.outstanding.pop(task_id, None)
                    if task is None:
                        continue  # stale message from a pre-respawn chunk
                    worker.last_activity = now
                    worker.stats.cells += 1
                    worker.stats.busy_s += wall_s
                    pending -= 1
                    if kind == "ok":
                        self.cost_model.observe(task.cost, wall_s)
                        yield TaskOutcome(
                            task_id=task_id,
                            status="ok",
                            worker=worker.stats.pid or wid,
                            wall_s=wall_s,
                            result=payload,
                            wid=worker.wid,
                            telemetry=telemetry,
                        )
                    else:
                        yield TaskOutcome(
                            task_id=task_id,
                            status="error",
                            worker=worker.stats.pid or wid,
                            wall_s=wall_s,
                            error=payload,
                            wid=worker.wid,
                            telemetry=telemetry,
                        )
                # liveness + timeout sweep
                for worker in workers:
                    if not worker.outstanding:
                        continue
                    hung = (
                        timeout_s is not None
                        and now - worker.last_activity > timeout_s
                    )
                    if not worker.alive or hung:
                        status = "lost" if not worker.alive else "timeout"
                        outcomes = fail_outstanding(worker, status)
                        pending -= len(outcomes)
                        if respawns_left > 0:
                            respawns_left -= 1
                            pool.respawn(worker)
                        elif worker.alive:
                            # over budget: kill the hung worker so no
                            # further chunks land on it
                            worker.proc.kill()
                            worker.proc.join(timeout=5.0)
                            worker.close()
                        yield from outcomes
                eta = self.eta_s()
                if eta is not None:
                    metrics.gauge("campaign.sched.eta_s").set(eta)
        finally:
            self.stats.wall_s = time.perf_counter() - t_start
            self.stats.workers = [w.stats for w in workers]
            if self.stats.wall_s > 0:
                for w in workers:
                    metrics.gauge(
                        f"campaign.sched.worker{w.wid}.utilization"
                    ).set(w.stats.utilization(self.stats.wall_s))
            metrics.gauge("campaign.sched.queue_depth").set(0)
