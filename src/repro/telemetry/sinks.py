"""Telemetry sinks: where trace records go.

A sink receives flat record dicts (see :mod:`repro.telemetry.tracer`
for the schema) and may buffer, stream, or drop them:

* :class:`NullSink` — drops everything; ``enabled = False`` lets the
  tracer short-circuit before a record is even built, which is what
  keeps an untraced run within the overhead budget (DESIGN.md §9);
* :class:`MemorySink` — keeps records in a list; the test sink;
* :class:`JsonlSink` — one JSON object per line to a file;
* :class:`JournalSink` — forwards records into a campaign
  :class:`repro.campaign.RunJournal`, interleaving telemetry with the
  journal's cell records in one crash-tolerant JSONL stream.

The Chrome ``trace_event`` exporter lives in
:mod:`repro.telemetry.chrome`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

__all__ = ["Sink", "NullSink", "MemorySink", "JsonlSink", "JournalSink"]


class Sink:
    """Base sink: receives record dicts via :meth:`emit`."""

    #: tracers short-circuit all instrumentation when the sink of the
    #: installed tracer reports ``enabled = False``
    enabled = True

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; safe to call twice."""


class NullSink(Sink):
    """Discards every record (the default sink)."""

    enabled = False

    def emit(self, record: dict) -> None:  # pragma: no cover - never hot
        pass


class MemorySink(Sink):
    """Buffers records in memory — for tests and the summary report.

    Emit/clear are lock-guarded: with campaign telemetry shipping the
    parent merges worker batches while in-process instrumentation may
    be emitting on another thread, so two concurrent ``emit`` calls
    must never corrupt the list (CPython's list.append is atomic, but
    subclasses — :class:`~repro.telemetry.chrome.ChromeTraceSink` — and
    ``clear`` racing an append are not guaranteed to be).
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def clear(self) -> None:
        with self._lock:
            self.records.clear()


class JsonlSink(Sink):
    """Streams records as JSON lines to ``path`` (append mode).

    ``flush_every`` bounds how stale the file can be: the sink flushes
    after every N records (and on :meth:`close`), so a live tail — a
    concurrent ``campaign watch``, or post-crash forensics — sees
    records promptly instead of whatever survived libc's buffer.
    """

    def __init__(self, path: Path | str, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a")
        self._pending = 0

    def emit(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._pending += 1
            if self._pending >= self.flush_every:
                self._fh.flush()
                self._pending = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
            self._pending = 0


class JournalSink(Sink):
    """Forwards records into a campaign ``RunJournal``.

    Every record becomes a ``{"event": "telemetry", ...}`` journal line,
    so a campaign's cells and the telemetry of the runs that produced
    them land in one stream and survive crashes together (the journal
    flushes-or-fsyncs per record).
    """

    def __init__(self, journal) -> None:
        self.journal = journal

    def emit(self, record: dict) -> None:
        self.journal.telemetry(record)
