"""Telemetry sinks: where trace records go.

A sink receives flat record dicts (see :mod:`repro.telemetry.tracer`
for the schema) and may buffer, stream, or drop them:

* :class:`NullSink` — drops everything; ``enabled = False`` lets the
  tracer short-circuit before a record is even built, which is what
  keeps an untraced run within the overhead budget (DESIGN.md §9);
* :class:`MemorySink` — keeps records in a list; the test sink;
* :class:`JsonlSink` — one JSON object per line to a file; what
  ``run --trace PATH.jsonl`` installs, and the stream ``campaign
  watch`` and ``campaign report`` read back with
  :func:`read_records` / :func:`tail_records`.

The Chrome ``trace_event`` exporter lives in
:mod:`repro.telemetry.chrome`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "Sink",
    "read_records",
    "tail_records",
]


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
    """Streams records as JSON lines to ``path``, replacing its contents.

    The file holds one sink's records: a second run into the same path
    starts it afresh, as ``--audit`` does, so a reader never sees one
    run's records behind another's ``campaign.summary``.

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
        self._fh = self.path.open("w")
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


# ---------------------------------------------------------------------
# read side: torn-tail-aware record access
#
# A JSONL trace has one writer, which may be appending right now (a
# live ``campaign watch``) or may have died mid-line (a killed run). A
# newline-less final line is therefore not-yet-written, not an error.


def _parse_lines(data: bytes) -> list[dict]:
    """JSON records from complete lines; unparseable lines skipped."""
    records: list[dict] = []
    for line in data.splitlines():
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def tail_records(path: Path | str, offset: int) -> tuple[list[dict], int]:
    """Complete records written at/after byte ``offset``; new offset.

    The incremental read behind ``campaign watch``: each call returns
    the records whose final newline has landed since the last call and
    the offset to resume from. A partial final line stays unread until
    its newline arrives — the returned offset never points inside a
    record. A missing file reads as no records.
    """
    try:
        with Path(path).open("rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    return _parse_lines(data[: end + 1]), offset + end + 1


def read_records(path: Path | str) -> list[dict]:
    """Every complete record in the JSONL file at ``path``."""
    return tail_records(path, 0)[0]
