"""Low-overhead tracer: nestable spans and instants on a sim-time clock.

Record schema (what sinks receive) — a flat dict modelled on Chrome's
``trace_event`` format, with timestamps in **seconds** on whatever
clock the tracer is bound to:

``{"ph": .., "name": .., "cat": .., "ts": .., "pid": .., "tid": ..,
"args": {..}}``

* ``ph``   — ``"B"``/``"E"`` span begin/end, ``"X"`` complete span
  (carries ``"dur"``), ``"i"`` instant, ``"M"`` metadata
  (process/thread names);
* ``pid``  — one *process* per simulation run: every time a DES
  :class:`~repro.des.engine.Engine` binds its virtual clock the pid is
  bumped, so back-to-back runs (paired baselines, campaign sweeps) get
  separate, individually-monotone timelines instead of overlapping ts
  ranges;
* ``tid``  — one *thread* per simulated rank (``rank + 1``) in a DES
  run, one per partition in a proxy run (1 the simulation, 2 the
  analysis), with ``tid 0`` reserved for the engine / controller /
  campaign layer.

Clocks
------
The tracer starts on a wall clock (``perf_counter`` relative to tracer
creation). A DES engine constructed while a tracer is installed calls
:meth:`Tracer.bind_clock` so that every subsequent timestamp is
**simulated seconds** — the paper's whole argument is about *when*
things happen in virtual time, so that is the axis traces live on.

Overhead contract
-----------------
``get_tracer()`` returns a process-wide null tracer unless a real one
is installed with :func:`use_tracer`. The null tracer's ``enabled``
is False and all of its methods are allocation-free no-ops, so
instrumentation in hot paths costs one attribute check (the DES event
loop additionally caches ``None`` at engine construction and pays only
an identity test per dispatch). The overhead budget — < 3 % on a full
in-situ run — is asserted by ``benchmarks/test_telemetry_overhead.py``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Optional

from repro.telemetry.sinks import MemorySink, NullSink, Sink

__all__ = [
    "SpanHandle",
    "Tracer",
    "get_tracer",
    "use_tracer",
]


class SpanHandle:
    """An open span; close it with :meth:`end` (or ``Tracer.end``).

    Handles are what generator-based rank code uses: a context manager
    cannot straddle a ``yield`` back into the DES scheduler, a
    begin/end pair can.
    """

    __slots__ = ("tracer", "name", "cat", "pid", "tid", "ts", "closed")

    def __init__(self, tracer: "Tracer", name: str, cat: str, pid: int, tid: int, ts: float):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.ts = ts
        self.closed = False

    def end(self, **args) -> None:
        self.tracer.end(self, **args)


class Tracer:
    """Span/instant recorder in front of a pluggable sink."""

    def __init__(
        self,
        sink: Sink | None = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self._clock = clock
        self._wall0 = time.perf_counter()
        self.pid = 0
        self._pid_count = 0

    # ------------------------------------------------------------ time
    def now(self) -> float:
        """Current timestamp: bound clock, else wall seconds."""
        clock = self._clock
        if clock is not None:
            return clock()
        return time.perf_counter() - self._wall0

    def wall_now(self) -> float:
        """Wall seconds since tracer creation (clock-binding immune)."""
        return time.perf_counter() - self._wall0

    def bind_clock(self, clock: Callable[[], float], label: str | None = None) -> int:
        """Adopt a simulation clock; returns the run's fresh ``pid``.

        Each binding starts a new trace "process" so sequential runs
        (whose virtual clocks all start at 0) do not overlap.
        """
        self._clock = clock
        self._pid_count += 1
        self.pid = self._pid_count
        if label:
            self.name_process(label, pid=self.pid)
        return self.pid

    # ------------------------------------------------------------ emit
    def _emit(self, record: dict) -> None:
        self.sink.emit(record)

    def emit_many(self, records) -> None:
        """Emit a list of pre-built records in one pass.

        The proxy session hands each synchronization's per-partition
        phase spans over this way, skipping per-record keyword plumbing.
        Each record must be fully formed — ``ph``/``name``/``ts``/
        ``pid``/``tid`` — as the per-record helpers would build it.
        """
        emit = self.sink.emit
        for record in records:
            emit(record)

    # ----------------------------------------------------------- spans
    def begin(
        self,
        name: str,
        cat: str = "",
        tid: int = 0,
        ts: float | None = None,
        **args,
    ) -> SpanHandle:
        """Open a span; returns the handle to :meth:`end` later."""
        t = self.now() if ts is None else ts
        self._emit(
            {
                "ph": "B",
                "name": name,
                "cat": cat,
                "ts": t,
                "pid": self.pid,
                "tid": tid,
                "args": args or None,
            }
        )
        return SpanHandle(self, name, cat, self.pid, tid, t)

    def end(self, span: SpanHandle, ts: float | None = None, **args) -> None:
        """Close ``span``; idempotent (a second call is ignored)."""
        if span.closed:
            return
        span.closed = True
        self._emit(
            {
                "ph": "E",
                "name": span.name,
                "cat": span.cat,
                "ts": self.now() if ts is None else ts,
                "pid": span.pid,
                "tid": span.tid,
                "args": args or None,
            }
        )

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        """Context-manager span for straight-line (non-generator) code."""
        handle = self.begin(name, cat=cat, tid=tid, **args)
        try:
            yield handle
        finally:
            handle.end()

    def complete(
        self,
        name: str,
        dur: float,
        cat: str = "",
        tid: int = 0,
        ts: float | None = None,
        pid: int | None = None,
        **args,
    ) -> None:
        """A closed span in one record (Chrome ``"X"``).

        ``ts`` is the span *start*; callers that know a phase's duration
        up front (the DES compute awaitable) use this instead of B/E.
        """
        self._emit(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": self.now() if ts is None else ts,
                "dur": dur,
                "pid": self.pid if pid is None else pid,
                "tid": tid,
                "args": args or None,
            }
        )

    def instant(
        self,
        name: str,
        cat: str = "",
        tid: int = 0,
        ts: float | None = None,
        **args,
    ) -> None:
        """A point event (controller decision, cap actuation, ...)."""
        self._emit(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": self.now() if ts is None else ts,
                "pid": self.pid,
                "tid": tid,
                "args": args or None,
            }
        )

    # -------------------------------------------------------- metadata
    def name_process(self, label: str, pid: int | None = None) -> None:
        self._emit(
            {
                "ph": "M",
                "name": "process_name",
                "cat": "",
                "ts": 0.0,
                "pid": self.pid if pid is None else pid,
                "tid": 0,
                "args": {"name": label},
            }
        )

    def name_thread(self, tid: int, label: str) -> None:
        self._emit(
            {
                "ph": "M",
                "name": "thread_name",
                "cat": "",
                "ts": 0.0,
                "pid": self.pid,
                "tid": tid,
                "args": {"name": label},
            }
        )

    def close(self) -> None:
        self.sink.close()


class _NullSpanHandle(SpanHandle):
    """Shared no-op handle returned by the null tracer."""

    __slots__ = ()

    def end(self, **args) -> None:
        pass


class NullTracer(Tracer):
    """Allocation-free no-op tracer; the process default.

    Every method returns immediately; ``span()`` hands back a shared
    null context manager and ``begin()`` a shared closed handle, so
    instrumented code needs no ``if`` guards outside the very hottest
    loops.
    """

    def __init__(self) -> None:
        super().__init__(NullSink())
        self._null_span = _NullSpanHandle(self, "", "", 0, 0, 0.0)
        self._null_cm = contextlib.nullcontext(self._null_span)

    def bind_clock(self, clock, label=None) -> int:
        return 0

    def _emit(self, record: dict) -> None:  # pragma: no cover - no-op
        pass

    def emit_many(self, records) -> None:
        pass

    def begin(self, name, cat="", tid=0, ts=None, **args) -> SpanHandle:
        return self._null_span

    def end(self, span, ts=None, **args) -> None:
        pass

    def span(self, name, cat="", tid=0, **args):
        return self._null_cm

    def complete(self, name, dur, cat="", tid=0, ts=None, pid=None, **args) -> None:
        pass

    def instant(self, name, cat="", tid=0, ts=None, **args) -> None:
        pass

    def name_process(self, label, pid=None) -> None:
        pass

    def name_thread(self, tid, label) -> None:
        pass


#: the process-wide default — near-zero cost, always safe to call
NULL_TRACER = NullTracer()

_current: Tracer | None = None


def get_tracer() -> Tracer:
    """The tracer in effect: the :func:`use_tracer` scope's tracer, or
    the shared :data:`NULL_TRACER`."""
    current = _current
    return current if current is not None else NULL_TRACER


@contextlib.contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` as the ambient tracer for the scope.

    Everything constructed inside the scope — DES engines, controllers,
    RAPL domains, campaign engines — picks it up without parameter
    plumbing, mirroring :func:`repro.campaign.use_engine`.
    """
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
