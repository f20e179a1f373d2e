"""Deterministic discrete-event engine.

This is the execution substrate of the in-situ path: the simulated MPI
runtime, the RAPL power domains, PoLiMER, the fault injector and the
coupled simulation/analysis ranks all advance a single virtual clock
owned by an :class:`Engine`. The figure harnesses run on the vectorized
proxy (:mod:`repro.workloads.lammps_proxy`) and never build one.

Design notes
------------
* Events are kept in a binary heap of slotted ``[time, seq, callback]``
  entries. The monotonically increasing sequence number is unique, so a
  heap sift is decided entirely by the ``(time, seq)`` prefix and runs
  in C — the hot loop pays no Python-level comparison calls and no
  per-event handle allocation. The sequence number also makes
  simultaneous events fire in schedule order, which keeps runs
  bit-for-bit reproducible — a property the experiment harness relies
  on to pair managed runs with their baselines (paper §VII-A).
* The entry itself is the cancellation handle: :meth:`Engine.cancel`
  clears the callback slot in O(1) and cleared entries are dropped
  lazily when popped. Power-cap changes re-schedule in-flight compute
  completions, so cancellation is on the hot path. When dead entries
  outnumber live ones the heap is compacted (filter + re-heapify),
  bounding both memory and per-pop skip work under cap-change storms
  (see DESIGN.md §15).
* ``run()`` is one drain-the-heap loop with the installed hooks
  (tracer / sampler / faults) bound to locals at entry; ``step()`` is
  the single-step API with the same hook order, so both produce
  bit-identical trajectories.
* There is no wall-clock coupling anywhere: virtual time advances only
  through the heap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.faults.injector import get_faults
from repro.metrics.audit import get_audit
from repro.metrics.registry import get_metrics
from repro.telemetry import get_tracer

__all__ = ["Engine", "EventHandle", "SimulationError"]

_INF = math.inf
_heappush = heapq.heappush
_heappop = heapq.heappop

#: A scheduled event is its own handle: a mutable ``[time, seq,
#: callback]`` triple whose ``(time, seq)`` prefix orders the heap in C.
#: Slot 2 is the *callback slot* — cleared to ``None`` when the event
#: fires or is cancelled, so a handle is live iff ``handle[2] is not
#: None``. Cancel through :meth:`Engine.cancel` (which keeps the dead
#:-entry accounting right), never by mutating the slot directly.
EventHandle = List[Any]


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (deadlock, etc.)."""


class Engine:
    """Virtual-time event loop.

    Typical use::

        eng = Engine()
        eng.schedule(1.5, lambda: print("fired at", eng.now))
        eng.run()
    """

    #: compaction trigger: rebuild the heap once at least this many
    #: cancelled entries are parked in it AND they outnumber live ones.
    #: The floor keeps tiny heaps on the pure lazy-deletion path; the
    #: majority rule makes compaction cost amortized O(1) per cancel.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._now = 0.0
        #: heap of slotted [time, seq, callback] entries — see module notes
        self._heap: list[EventHandle] = []
        self._seq = itertools.count()
        self._running = False
        #: cancelled entries still parked in the heap; drives compaction
        #: and makes ``pending`` O(1) (len(heap) minus dead entries)
        self._dead = 0
        #: number of heap compactions performed (diagnostic)
        self.compactions = 0
        #: number of callbacks executed; useful for complexity assertions
        self.events_executed = 0
        # Each traced engine is a fresh trace "process": sequential runs
        # all start their virtual clocks at 0 and must not overlap.
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        if self._tracer is not None:
            tracer.bind_clock(lambda: self._now, label="des-engine")
            tracer.name_thread(0, "des/engine")
        # The metrics registry and audit journal sample on the same
        # virtual clock; both bindings are no-ops on the null objects.
        metrics = get_metrics()
        self._metrics = metrics if metrics.enabled else None
        if self._metrics is not None:
            metrics.bind_clock(lambda: self._now)
        audit = get_audit()
        if audit.enabled:
            audit.bind_clock(lambda: self._now)
        # Fault windows open/close at exact virtual times via the same
        # inline-hook discipline as the sampler: markers are fired on
        # clock advances, never as heap events (which would move the
        # virtual end time and break bit-identity).
        faults = get_faults()
        self._faults = faults if faults.enabled else None
        if self._faults is not None:
            faults.bind_engine(self)
        #: inline sampler hook fired on clock advances (never a heap
        #: event — synthetic events would move the virtual end time and
        #: break the bit-identity contract). See attach_sampler().
        self._sampler: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def attach_sampler(self, sampler: Callable[[float], None]) -> None:
        """Install a callable invoked with ``now`` after every clock
        advance (see :class:`repro.metrics.timeseries.PeriodicSampler`).

        The sampler is a pure observer: it must not schedule events or
        otherwise perturb the simulation. Hooks are bound at ``run()``
        entry, so samplers must be attached before the run starts.
        """
        if self._running:
            raise SimulationError(
                "attach_sampler() during run(): hooks are bound at run() "
                "entry"
            )
        self._sampler = sampler

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:  # rejects negatives, inf and NaN
            raise ValueError(
                f"cannot schedule with non-finite or negative delay "
                f"(delay={delay})"
            )
        entry = [self._now + delay, next(self._seq), callback]
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if not self._now <= time < _INF:  # rejects past, inf and NaN
            raise ValueError(
                f"cannot schedule at t={time}: need a finite time >= "
                f"now={self._now}"
            )
        entry = [time, next(self._seq), callback]
        _heappush(self._heap, entry)
        return entry

    # ------------------------------------------------------------------
    def cancel(self, handle: EventHandle) -> None:
        """Prevent a scheduled callback from firing, in O(1).

        Safe to call twice and safe on handles that already fired: both
        are no-ops (the callback slot is already cleared).
        """
        if handle[2] is not None:
            handle[2] = None
            self._note_cancelled()

    def _note_cancelled(self) -> None:
        """Account for a cancellation; compact once dead entries win."""
        dead = self._dead + 1
        self._dead = dead
        if dead >= self.COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place (``heap[:] =``) so aliases held by a dispatch loop in
        progress keep observing the same list object.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
        if self._metrics is not None:
            self._metrics.counter("des.heap_compactions").inc()

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None when the heap is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            _heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next event. Returns False when nothing is pending."""
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            callback = entry[2]
            if callback is None:
                self._dead -= 1
                continue
            entry[2] = None  # fired: the handle is no longer live
            self._now = entry[0]
            if self._faults is not None:
                self._faults.on_advance(self._now)
            if self._sampler is not None:
                self._sampler(self._now)
            self.events_executed += 1
            if self._tracer is not None:
                # Callbacks are instantaneous in virtual time: a zero-width
                # complete span keeps dispatches visible under des.run.
                self._tracer.complete(
                    "des.dispatch", 0.0, cat="des", tid=0, seq=entry[1]
                )
            callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the event heap drains (or ``max_events`` fire).

        The unbounded form binds the installed hooks to locals at entry
        and dispatches in :meth:`step`'s hook order (advance clock →
        faults → sampler → count → tracer → callback); the bounded form
        calls :meth:`step` itself. The executed-event count is flushed
        in a ``finally`` so an exception in a callback still leaves
        ``events_executed`` exact.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        self._running = True
        tracer = self._tracer
        run_span = (
            tracer.begin("des.run", cat="des", tid=0)
            if tracer is not None
            else None
        )
        try:
            if max_events is None:
                heap = self._heap
                heappop = _heappop
                faults = self._faults
                sampler = self._sampler
                n = 0
                try:
                    while heap:
                        entry = heappop(heap)
                        callback = entry[2]
                        if callback is None:
                            self._dead -= 1
                            continue
                        entry[2] = None
                        now = self._now = entry[0]
                        if faults is not None:
                            faults.on_advance(now)
                        if sampler is not None:
                            sampler(now)
                        n += 1
                        if tracer is not None:
                            tracer.complete(
                                "des.dispatch", 0.0, cat="des", tid=0,
                                seq=entry[1],
                            )
                        callback()
                finally:
                    self.events_executed += n
            else:
                fired = 0
                while self.step():
                    fired += 1
                    if fired >= max_events:
                        return
        finally:
            self._running = False
            if run_span is not None:
                run_span.end(events=self.events_executed)
            if self._metrics is not None:
                self._metrics.counter("des.runs").inc()
                self._metrics.histogram("des.events_per_run").observe(
                    float(self.events_executed)
                )
                self._metrics.gauge("des.virtual_time_s").set(self._now)

    def run_until(self, time: float) -> None:
        """Run events with timestamps <= ``time``; then set now = time."""
        if time < self._now:
            raise ValueError("cannot run backwards")
        while True:
            nxt = self.peek()
            if nxt is None or nxt > time:
                break
            self.step()
        self._now = max(self._now, time)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live events still queued (O(1))."""
        return len(self._heap) - self._dead

    def _pending_scan(self) -> int:
        """O(n) heap scan of live events — the reference the O(1)
        counter is asserted against in the engine's test suite."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Engine now={self._now:.6f} pending={self.pending}>"
