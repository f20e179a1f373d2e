"""The fault injector: fires a :class:`FaultPlan` on the DES clock.

The injector is an **ambient singleton** exactly like the tracer and
the audit journal (:func:`get_faults` /
:func:`use_faults`, with an inert :data:`NULL_FAULTS` default), so the
hot paths pay a single cached ``is not None`` check when no faults are
installed — the same discipline that keeps telemetry overhead under its
bench budget.

Determinism contract
--------------------
The plan is static data; every query (``slowdown_factor``,
``actuation``, ``measurement``, ...) is a pure function of
``(plan, t, rank)``. Window *boundaries* are surfaced by an inline
``on_advance`` hook called from :meth:`repro.des.engine.Engine.step`
right after each clock advance — never as heap events, which would move
the virtual end time and break the bit-identity contract. A boundary
whose time falls beyond the last real event simply never fires, which
is correct: nothing in the simulation could have observed it.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.metrics.audit import get_audit
from repro.telemetry import get_tracer

__all__ = [
    "ActuationFault",
    "FaultInjector",
    "NULL_FAULTS",
    "get_faults",
    "use_faults",
]


class ActuationFault(NamedTuple):
    """Effect of active cap-actuation faults on one request."""

    dropped: bool
    extra_delay_s: float
    offset_w: float


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the virtual clock.

    One injector serves one run. Construct it with the plan, install it
    with :func:`use_faults`, and build the :class:`~repro.des.Engine`
    inside that scope — engine construction calls :meth:`bind_engine`,
    arming the boundary cursor and the observability hooks.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: chronological fault-marker rows (dicts), appended as windows
        #: open/close; byte-stable given the same plan + trajectory
        self.event_log: list[dict] = []
        # (t, phase, event) boundaries in firing order; phase 0 = start,
        # 1 = end so a window opening at another's close fires after it
        bounds: list[tuple[float, int, FaultEvent]] = []
        for ev in plan.events:
            bounds.append((ev.t_start, 0, ev))
            bounds.append((ev.t_end, 1, ev))
        self._bounds = sorted(bounds, key=lambda b: (b[0], b[1], b[2].kind.value))
        self._cursor = 0
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        audit = get_audit()
        self._audit = audit if audit.enabled else None

    @property
    def active(self) -> bool:
        """True when the plan carries at least one event."""
        return bool(self.plan.events)

    # ------------------------------------------------------------ engine
    def bind_engine(self, engine) -> None:
        """Reset the boundary cursor for a fresh engine run."""
        self._cursor = 0

    def on_advance(self, now: float) -> None:
        """Fire start/end markers for boundaries at or before ``now``.

        Called inline from ``Engine.step`` after every clock advance;
        O(1) when no boundary is due.
        """
        bounds = self._bounds
        i = self._cursor
        while i < len(bounds) and bounds[i][0] <= now:
            t, phase, ev = bounds[i]
            i += 1
            self._mark(t, "start" if phase == 0 else "end", ev)
        self._cursor = i

    def _mark(self, t: float, phase: str, ev: FaultEvent) -> None:
        self.event_log.append(
            {
                "t": t,
                "phase": phase,
                "kind": ev.kind.value,
                "rank": ev.rank,
                "magnitude": ev.magnitude,
                "duration": ev.duration,
            }
        )
        if self._tracer is not None:
            self._tracer.instant(
                f"faults.{ev.kind.value}.{phase}",
                cat="faults",
                ts=t,
                rank=-1 if ev.rank is None else ev.rank,
                magnitude=ev.magnitude,
            )
        if self._audit is not None and phase == "start":
            self._audit.record_fault(
                ev.kind.value,
                t,
                {
                    "rank": ev.rank,
                    "magnitude": ev.magnitude,
                    "duration": ev.duration,
                },
            )

    # -------------------------------------------------------- event log
    def log_mark(self) -> int:
        """Current length of the event log (for scoped extraction)."""
        return len(self.event_log)

    def log_since(self, mark: int) -> list[dict]:
        """Rows appended after ``mark`` (copies, safe to mutate)."""
        return [dict(row) for row in self.event_log[mark:]]

    # ----------------------------------------------------------- queries
    def _hit(
        self, t: float, kind: FaultKind, rank: int | None, **args
    ) -> None:
        """Trace one query that an open ``kind`` window changed, as a
        ``faults.<kind>.hit`` instant at ``t``."""
        if self._tracer is not None:
            self._tracer.instant(
                f"faults.{kind.value}.hit",
                cat="faults",
                ts=t,
                rank=-1 if rank is None else rank,
                **args,
            )

    def _active(self, t: float, kind: FaultKind, rank: int | None):
        for ev in self.plan.events:
            if ev.kind is kind and ev.active(t) and ev.hits(rank):
                yield ev

    def slowdown_factor(self, t: float, rank: int | None) -> float:
        """Multiplicative phase-cost factor (1.0 = unfaulted)."""
        factor = 1.0
        for ev in self._active(t, FaultKind.SLOWDOWN, rank):
            factor *= ev.magnitude
        return factor

    def outage_extra(self, t: float, rank: int | None) -> float:
        """Seconds until the node respawns (0.0 = no active outage).

        A phase starting mid-outage stalls for the remaining window;
        the stall is charged at the node's wait draw, like any gap.
        """
        stall = 0.0
        for ev in self._active(t, FaultKind.CRASH, rank):
            stall = max(stall, ev.t_end - t)
        if stall > 0.0:
            self._hit(t, FaultKind.CRASH, rank, stall_s=stall)
        return stall

    def actuation(self, t: float, rank: int | None = None) -> ActuationFault | None:
        """Active cap-actuation faults, or None when the path is clean."""
        dropped = False
        extra = 0.0
        offset = 0.0
        for ev in self._active(t, FaultKind.CAP_DROP, rank):
            dropped = True
        for ev in self._active(t, FaultKind.CAP_LAG, rank):
            extra += ev.magnitude
        for ev in self._active(t, FaultKind.CAP_SKEW, rank):
            offset += ev.magnitude
        if not (dropped or extra or offset):
            return None
        if dropped:
            self._hit(t, FaultKind.CAP_DROP, rank)
        if extra:
            self._hit(t, FaultKind.CAP_LAG, rank)
        if offset:
            self._hit(t, FaultKind.CAP_SKEW, rank)
        return ActuationFault(dropped, extra, offset)

    def measurement(self, t: float, rank: int | None) -> tuple[str, float] | None:
        """Active measurement fault for ``rank``: ``(kind, magnitude)``.

        Drop wins over stale wins over garble when windows overlap (a
        lost report can't also be re-sent).
        """
        for kind in (
            FaultKind.MEAS_DROP,
            FaultKind.MEAS_STALE,
            FaultKind.MEAS_GARBLE,
        ):
            for ev in self._active(t, kind, rank):
                self._hit(t, kind, rank)
                return (kind.value, ev.magnitude)
        return None

    def comm_delay(self, t: float) -> float:
        """Extra wire seconds for a message/collective started at ``t``."""
        delay = 0.0
        for ev in self._active(t, FaultKind.MPI_DELAY, None):
            delay += ev.magnitude
        if delay > 0.0:
            self._hit(t, FaultKind.MPI_DELAY, None, delay_s=delay)
        return delay

    def active_kinds(self, t: float) -> tuple[str, ...]:
        """Kinds with an open window at ``t`` (diagnostics)."""
        return tuple(
            sorted({e.kind.value for e in self.plan.events if e.active(t)})
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultInjector {len(self.plan.events)} events>"


class _NullFaultInjector(FaultInjector):
    """Inert default: consumers check ``enabled`` once and cache None."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(FaultPlan())

    @property
    def active(self) -> bool:
        return False

    def bind_engine(self, engine) -> None:
        pass

    def on_advance(self, now: float) -> None:  # pragma: no cover
        pass


NULL_FAULTS = _NullFaultInjector()

_current: FaultInjector | None = None


def get_faults() -> FaultInjector:
    """The ambient injector (:data:`NULL_FAULTS` unless installed)."""
    current = _current
    return current if current is not None else NULL_FAULTS


@contextlib.contextmanager
def use_faults(injector: FaultInjector):
    """Install ``injector`` as the ambient fault injector for a scope."""
    global _current
    previous = _current
    _current = injector
    try:
        yield injector
    finally:
        _current = previous
