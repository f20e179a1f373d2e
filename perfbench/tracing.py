"""In-memory span tracing from outside the program.

The traced pass wraps the public functions of each layer (and the few
private seams where a layer's work is otherwise invisible, such as the
operating-point cache lookup) with timers from this file. Each call
records a span ``(name, start, end, parent)`` in flat arrays; self
times are folded afterwards by :func:`stats.self_times`.

Functions are patched everywhere they are bound: a module that did
``from repro.power.execution import execute_phase`` holds its own
reference, so :meth:`Tracer.patch_function` replaces the object in
every loaded ``repro`` module that refers to it. Methods are patched
on their class. :meth:`Tracer.restore` undoes every patch.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from perfbench.stats import self_times


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        #: plain counts recorded at the same boundaries as the spans
        self.counts: dict[str, float] = {}
        #: (open span, row name, seconds) moved out of that span's self time
        self._charges: list = []
        self._undo: list = []

    # ------------------------------------------------------------ spans
    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.starts)
        stack = self._stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def begin(self, name: str) -> int:
        """Open a span by name (for the benchmark's own root span)."""
        return self.open(self._name_id(name))

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, delta: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + delta

    def charge(self, name: str, seconds: float) -> None:
        """Move ``seconds`` just spent inside the innermost open span
        out of its self time into a row ``name`` of its own: the
        benchmark's speed probes, which may run on a timer signal in the
        middle of any span (even of :meth:`open`, where the time may go
        to the span being opened rather than its parent)."""
        self._charges.append((self._stack[-1] if self._stack else -1, name, seconds))

    def enclosing(self) -> str | None:
        """Name of the innermost open span (None outside any)."""
        stack = self._stack
        return self.names[self.name_ids[stack[-1]]] if stack else None

    # --------------------------------------------------------- wrappers
    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` timed as span ``name``. ``on_call(args, kwargs)`` runs
        before the span opens and ``on_return(result)`` after it
        closes, to record counts where the work happens."""
        nid = self._name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """``fn`` returns a generator (a DES process step): time each
        resumption as one span, so time spent suspended is not
        counted. ``<name>.calls`` counts the generators created."""
        nid = self._name_id(name)
        tracer = self

        def pump(gen):
            value, exc = None, None
            while True:
                i = tracer.open(nid)
                try:
                    item = gen.throw(exc) if exc is not None else gen.send(value)
                except StopIteration as stop:
                    tracer.close(i)
                    return stop.value
                except BaseException:
                    tracer.close(i)
                    raise
                tracer.close(i)
                value, exc = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # forwarded into gen
                    exc = thrown

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(name + ".calls")
            return pump(fn(*args, **kwargs))

        return traced

    # ---------------------------------------------------------- patches
    def patch_function(
        self, module, attr: str, name: str, generator=False, on_call=None
    ):
        """Replace ``module.attr`` in every loaded ``repro`` module that
        binds the same object."""
        original = getattr(module, attr)
        wrapped = (
            self.wrap_generator(name, original)
            if generator
            else self.wrap(name, original, on_call=on_call)
        )
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, on_call=None, on_return=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, on_call, on_return))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # ----------------------------------------------------------- report
    def fold(self) -> dict[str, list]:
        """``{name: [calls, inclusive_s, self_s]}`` over all spans."""
        by_id = self_times(self.name_ids, self.starts, self.ends, self.parents)
        out = {self.names[i]: row for i, row in by_id.items()}
        for span, name, seconds in self._charges:
            if span >= 0:
                out[self.names[self.name_ids[span]]][2] -= seconds
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += seconds
            row[2] += seconds
        return out

    def __len__(self) -> int:
        return len(self.starts)
