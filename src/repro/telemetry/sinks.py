"""Telemetry sinks: where trace records go.

A sink receives flat record dicts (see :mod:`repro.telemetry.tracer`
for the schema) through :meth:`Sink.emit`, or a columnar
:class:`SpanBatch` of complete spans through :meth:`Sink.emit_spans`,
and may buffer, stream, or drop them:

* :class:`NullSink` — drops everything; ``enabled = False`` lets the
  tracer short-circuit before a record is even built, which is what
  keeps an untraced run within the overhead budget (DESIGN.md §9);
* :class:`MemorySink` — keeps records in a list; the test sink;
* :class:`JsonlSink` — one JSON object per line to a file (a span
  batch is encoded and written whole);
* :class:`JournalSink` — forwards records into a campaign
  :class:`repro.campaign.RunJournal`, interleaving telemetry with the
  journal's cell records in one crash-tolerant JSONL stream.

The Chrome ``trace_event`` exporter lives in
:mod:`repro.telemetry.chrome`.
"""

from __future__ import annotations

import json
import math
import threading
from json.encoder import encode_basestring_ascii
from pathlib import Path

__all__ = [
    "Sink",
    "SpanBatch",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "JournalSink",
]


class SpanBatch:
    """Complete (``"X"``) spans of one ``pid`` and ``cat``, as rows.

    Each span carries one numeric arg under :attr:`key`; :attr:`rows`
    holds ``(name, ts, dur, tid, value)`` tuples in emission order.
    Hot emitters (the proxy session's per-rank phase spans) append
    tuples instead of building one dict per span, and sinks that pay
    per record (file encoding, the metrics fold) take the batch whole.
    :meth:`records` yields the equivalent record dicts for every other
    sink.
    """

    __slots__ = ("pid", "cat", "key", "rows")

    def __init__(self, pid: int, cat: str, key: str) -> None:
        self.pid = pid
        self.cat = cat
        self.key = key
        self.rows: list[tuple] = []

    def records(self):
        """The batch as record dicts, in row order and with the key
        order :meth:`Tracer.complete` builds."""
        cat, pid, key = self.cat, self.pid, self.key
        for name, ts, dur, tid, value in self.rows:
            yield {
                "ph": "X", "name": name, "cat": cat, "ts": ts, "dur": dur,
                "pid": pid, "tid": tid, "args": {key: value},
            }


class Sink:
    """Base sink: receives record dicts via :meth:`emit`."""

    #: tracers short-circuit all instrumentation when the sink of the
    #: installed tracer reports ``enabled = False``
    enabled = True

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def emit_spans(self, batch: SpanBatch) -> None:
        """Receive a :class:`SpanBatch`; by default one :meth:`emit`
        per record."""
        emit = self.emit
        for record in batch.records():
            emit(record)

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

    def emit_spans(self, batch: SpanBatch) -> None:
        with self._lock:
            self.records.extend(batch.records())

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

    def emit_spans(self, batch: SpanBatch) -> None:
        """Write the batch in one ``write``.

        The bytes are those of :meth:`emit`'s ``json.dumps(record,
        sort_keys=True)`` per record: each line fills a per-batch
        template, in sorted-key order, with strings escaped by the
        encoder ``json.dumps`` uses and numbers rendered by
        ``float.__repr__`` / ``int.__repr__``. A batch with a value
        that template cannot render the same way (a non-finite float,
        which ``json`` writes as ``NaN``/``Infinity``, or a number that
        is not exactly a float or an int) goes through :meth:`emit`
        record by record instead.
        """
        if self._fh is None or not batch.rows:
            return
        text = _encode_spans(batch)
        if text is None:
            for record in batch.records():
                self.emit(record)
            return
        self._fh.write(text)
        self._pending += len(batch.rows)
        if self._pending >= self.flush_every:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
            self._pending = 0


def _encode_spans(batch: SpanBatch) -> str | None:
    """``batch`` as JSON lines, or None where the template cannot
    reproduce ``json.dumps`` (see :meth:`JsonlSink.emit_spans`)."""
    names, ts, dur, tids, values = zip(*batch.rows)
    if (
        type(batch.pid) is not int
        or type(batch.cat) is not str
        or type(batch.key) is not str
        or {*map(type, ts), *map(type, dur), *map(type, values)} != {float}
        or {*map(type, tids)} != {int}
        or {*map(type, names)} != {str}
        or not math.isfinite(sum(ts) + sum(dur) + sum(values))
    ):
        return None
    escaped = {name: encode_basestring_ascii(name) for name in set(names)}
    template = (
        '{"args": {' + encode_basestring_ascii(batch.key).replace("%", "%%")
        + ': %s}, "cat": ' + encode_basestring_ascii(batch.cat).replace("%", "%%")
        + ', "dur": %s, "name": %s, "ph": "X", "pid": ' + int.__repr__(batch.pid)
        + ', "tid": %s, "ts": %s}\n'
    )
    frepr = float.__repr__
    return "".join(
        map(
            template.__mod__,
            zip(
                map(frepr, values),
                map(frepr, dur),
                map(escaped.__getitem__, names),
                map(int.__repr__, tids),
                map(frepr, ts),
            ),
        )
    )


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
