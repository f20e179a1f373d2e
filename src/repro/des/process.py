"""Generator-based simulated processes and one-shot events.

A :class:`Process` wraps a Python generator that models one thread of
control (an MPI rank, a partition, a power monitor). The generator
yields *awaitables*:

* ``Delay(dt)`` — advance virtual time by ``dt``;
* a :class:`SimEvent` — block until someone calls ``succeed(value)``;
  the value is sent back into the generator;
* another :class:`Process` — block until that process terminates; its
  return value is sent back.

Higher layers (the MPI runtime, node compute) hand processes richer
objects that ultimately reduce to these primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.des.engine import Engine, SimulationError

__all__ = ["Delay", "Process", "SimEvent"]


class Delay:
    """Awaitable that resumes the process after ``duration`` seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Delay({self.duration})"


class SimEvent:
    """One-shot event processes can wait on.

    ``succeed(value)`` wakes every waiter exactly once, delivering
    ``value`` as the result of the ``yield``. Waiting on an event that
    already succeeded resumes immediately (next engine step), so there
    is no race between signal and wait.
    """

    __slots__ = ("_engine", "_value", "_done", "_waiters", "name")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self._engine = engine
        self._value: Any = None
        self._done = False
        self._waiters: list[Callable[[Any], None]] = []
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError(f"event {self.name!r} succeeded twice")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            # Resume via the engine so waiters run in deterministic order
            # and never re-enter the caller's stack.
            self._engine.schedule(0.0, lambda r=resume: r(value))

    def _succeed_inline(self, value: Any = None) -> None:
        """Succeed and resume waiters synchronously, in join order.

        Used by the collective release
        (:meth:`repro.mpi.comm._CollectiveRound.release`): one heap
        event wakes every member instead of scheduling one zero-delay
        event per waiter. Join order is exactly the order
        :meth:`succeed` would resume waiters in, so trajectories match;
        only the event count drops. Waiters run on the caller's stack —
        only use this from an engine callback.
        """
        if self._done:
            raise SimulationError(f"event {self.name!r} succeeded twice")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self._done:
            self._engine.schedule(0.0, lambda: resume(self._value))
        else:
            self._waiters.append(resume)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done else f"{len(self._waiters)} waiting"
        return f"<SimEvent {self.name!r} {state}>"


class Process:
    """A simulated thread of control driven by the engine.

    Parameters
    ----------
    engine:
        The engine that owns virtual time.
    gen:
        Generator implementing the process body.
    name:
        Diagnostic label (appears in error messages and deadlock dumps).

    The process starts on the next engine step after construction, so
    sibling processes created "at the same time" all observe the same
    start time regardless of construction order.
    """

    __slots__ = (
        "engine",
        "name",
        "_gen",
        "_done_event",
        "_alive",
        "_result",
    )

    def __init__(
        self,
        engine: Engine,
        gen: Generator[Any, Any, Any],
        name: str = "process",
    ) -> None:
        self.engine = engine
        self.name = name
        self._gen = gen
        self._done_event = SimEvent(engine, name=f"{name}.done")
        self._alive = True
        self._result: Any = None
        engine.schedule(0.0, lambda: self._advance(None))

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator; valid once ``alive`` is False."""
        if self._alive:
            raise SimulationError(f"process {self.name!r} still running")
        return self._result

    @property
    def done_event(self) -> SimEvent:
        return self._done_event

    # ------------------------------------------------------------------
    def _advance(self, send_value: Any) -> None:
        """Resume the generator with ``send_value`` and dispatch its yield."""
        try:
            awaited = self._gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self._result = stop.value
            self._done_event.succeed(stop.value)
            return
        self._dispatch(awaited)

    def _dispatch(self, awaited: Any) -> None:
        if isinstance(awaited, Delay):
            self.engine.schedule(awaited.duration, lambda: self._advance(None))
        elif isinstance(awaited, SimEvent):
            awaited._add_waiter(self._advance)
        elif isinstance(awaited, Process):
            awaited._done_event._add_waiter(self._advance)
        elif hasattr(awaited, "__sim_await__"):
            # Extension point: objects provide __sim_await__(process)
            # and call process._advance(value) when complete.
            awaited.__sim_await__(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {awaited!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
