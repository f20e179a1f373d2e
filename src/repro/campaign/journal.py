"""Structured JSONL run journal — a replayable campaign ledger.

One line per cell event (``{"event": "cell", ...}``) with the cache
key, status, wall time, attempt number, backend and worker id, plus
engine-level events (pool fallback, batch boundaries), telemetry
records (via :class:`repro.telemetry.JournalSink`) and a final
summary. The journal doubles as the campaign's counters — hits,
misses, errors, timeouts, retries — which the CLI and the tests read
back without parsing the file.

Ledger records (see :mod:`repro.campaign.resume`) make a journal
replayable: a ``campaign`` header pins the campaign id and the exact
CLI inputs (experiments, overrides, cache directory), ``scheduled``
rows record every cell fingerprint the engine enqueued, and the
per-cell rows record which fingerprints completed. ``campaign resume``
reconstructs the set of finished/in-flight cells from those rows
alone.

Crash tolerance: every append is flushed and fsynced (falling back to
a plain flush where fsync is unsupported; a shipped telemetry batch is
one append), and opening an existing
journal for append first repairs a truncated final line — a crashed
writer's partial record is dropped so the resumed journal stays
line-parseable end to end.

Concurrent writers: every append (and the open-time tail repair) runs
under an exclusive ``flock`` on the journal file itself, so two
campaigns sharing one journal can interleave *records* but never
*bytes* — each line lands whole. Without ``fcntl`` (non-POSIX) the
lock degrades to best-effort unlocked appends.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import TextIO

try:  # POSIX advisory locking; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = ["RunJournal", "read_records", "tail_records"]


@contextlib.contextmanager
def _flocked(fh, shared: bool = False):
    """Advisory lock on ``fh`` for the scope (best-effort).

    Exclusive by default (writers); ``shared=True`` takes the read
    lock, so readers serialize against appends and the open-time tail
    repair but not against each other.
    """
    locked = False
    if fcntl is not None:
        try:
            fcntl.flock(
                fh.fileno(), fcntl.LOCK_SH if shared else fcntl.LOCK_EX
            )
            locked = True
        except (OSError, ValueError):
            pass  # unlockable file object: fall through unlocked
    try:
        yield
    finally:
        if locked:
            with contextlib.suppress(OSError, ValueError):
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _repair_truncated_tail(path: Path) -> None:
    """Drop a partial (newline-less) final line left by a crash.

    Runs under the same advisory lock as appends, so a live writer's
    in-progress record can never be mistaken for a crashed tail.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return
    if size == 0:
        return
    with path.open("rb+") as fh, _flocked(fh):
        size = os.fstat(fh.fileno()).st_size  # re-read under the lock
        if size == 0:
            return
        # scan backwards in chunks for the last newline
        chunk = 4096
        pos = size
        last_nl = -1
        while pos > 0 and last_nl < 0:
            step = min(chunk, pos)
            pos -= step
            fh.seek(pos)
            data = fh.read(step)
            idx = data.rfind(b"\n")
            if idx >= 0:
                last_nl = pos + idx
        if last_nl == size - 1:
            return  # final line is complete
        fh.truncate(last_nl + 1 if last_nl >= 0 else 0)

# ---------------------------------------------------------------------
# read side: tolerant, locked, torn-tail-aware record access
#
# ``campaign status``/``watch``/``report`` read journals that another
# process may be appending to right now. These helpers take the same
# advisory lock as the writers (shared mode) and treat a newline-less
# final line as not-yet-written rather than as an error — the read-only
# twin of the open-time tail repair above.


def _parse_lines(data: bytes) -> list[dict]:
    """JSON records from complete lines; unparseable lines skipped."""
    records: list[dict] = []
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def read_records(path: Path | str) -> list[dict]:
    """Every complete record in the journal at ``path``.

    Safe against a concurrent writer: the read happens under the
    journal's shared advisory lock and stops at the last newline, so a
    torn tail (a writer mid-append on a lockless filesystem, or a
    crashed writer's partial record) is silently excluded instead of
    failing the read. A missing file reads as an empty journal.
    """
    records, _ = tail_records(path, 0)
    return records


def tail_records(path: Path | str, offset: int) -> tuple[list[dict], int]:
    """Complete records appended at/after byte ``offset``; new offset.

    The incremental read behind ``campaign watch``: each call returns
    the records whose final newline has landed since the last call and
    the offset to resume from. A partial final line stays unread until
    its newline arrives — the returned offset never points inside a
    record.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh, _flocked(fh, shared=True):
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    return _parse_lines(data[: end + 1]), offset + end + 1


#: cell statuses that count as an executed (non-cached) cell
_EXECUTED = frozenset({"done", "retried"})

#: cell statuses that mean the cell's result is available (computed,
#: cached, deduplicated, or observed from a concurrent campaign)
COMPLETED_STATUSES = frozenset({"done", "retried", "hit", "dup"})


class RunJournal:
    """Counter-accumulating JSONL writer (file optional).

    With ``path=None`` the journal only keeps counters — the engine
    always journals, writing to disk only when asked to.
    """

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._fh: TextIO | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                _repair_truncated_tail(self.path)
            self._fh = self.path.open("a")
        self.counts = {
            "cells": 0,
            "hits": 0,
            "misses": 0,
            "dups": 0,
            "shared": 0,
            "errors": 0,
            "timeouts": 0,
            "retries": 0,
            "failed": 0,
        }

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        if self._fh is not None:
            self._append(json.dumps(record, sort_keys=True) + "\n")

    def _append(self, text: str) -> None:
        """Append whole lines under one lock, one flush and one fsync."""
        with _flocked(self._fh):
            self._fh.write(text)
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass  # fsync-or-flush: some filesystems refuse fsync

    def event(self, kind: str, **fields) -> None:
        """Engine-level event (pool fallback, batch start, ...)."""
        self._write({"event": kind, "ts": time.time(), **fields})

    def telemetry(self, record: dict) -> None:
        """One tracer record (see :class:`repro.telemetry.JournalSink`)."""
        self._write({"event": "telemetry", **record})

    def telemetry_many(self, records: list[dict]) -> None:
        """Tracer records as consecutive rows, in order: the same bytes
        as one :meth:`telemetry` call per record, written as one append
        (a shipped batch is thousands of records; an fsync per line
        would dominate the run)."""
        if self._fh is not None and records:
            self._append(
                "".join(
                    json.dumps({"event": "telemetry", **record}, sort_keys=True)
                    + "\n"
                    for record in records
                )
            )

    # ------------------------------------------------------ ledger rows
    def campaign(self, campaign_id: str, **meta) -> None:
        """The campaign header: id + everything resume needs to rerun."""
        self._write(
            {"event": "campaign", "ts": time.time(), "id": campaign_id, **meta}
        )

    def scheduled(self, keys: list[str]) -> None:
        """Fingerprints of cells the engine is about to execute.

        A key that appears here without a later completed ``cell`` row
        was in flight when the campaign died — resume re-enqueues it.
        """
        if keys:
            self._write(
                {"event": "scheduled", "ts": time.time(), "keys": list(keys)}
            )

    def resume(self, campaign_id: str, **meta) -> None:
        """Mark a resumed leg of the campaign."""
        self._write(
            {"event": "resume", "ts": time.time(), "id": campaign_id, **meta}
        )

    def cell(
        self,
        key: str,
        label: str,
        status: str,
        wall_s: float,
        attempt: int = 1,
        backend: str = "serial",
        worker: int | None = None,
        **extra,
    ) -> None:
        """One cell outcome.

        ``status``: ``hit`` (cache), ``dup`` (deduplicated within the
        batch), ``done`` (executed first try), ``retried`` (executed
        after failures), ``error``/``timeout`` (one failed attempt),
        ``failed`` (all attempts exhausted). A ``hit`` with
        ``via="single-flight"`` was computed by a concurrent campaign
        sharing the store and observed rather than recomputed.
        """
        if status == "hit":
            self.counts["cells"] += 1
            self.counts["hits"] += 1
            if extra.get("via") == "single-flight":
                self.counts["shared"] += 1
        elif status == "dup":
            self.counts["cells"] += 1
            self.counts["dups"] += 1
        elif status in _EXECUTED:
            self.counts["cells"] += 1
            self.counts["misses"] += 1
            if status == "retried":
                self.counts["retries"] += 1
        elif status == "error":
            self.counts["errors"] += 1
        elif status == "timeout":
            self.counts["timeouts"] += 1
        elif status == "failed":
            self.counts["failed"] += 1
        self._write(
            {
                "event": "cell",
                "ts": time.time(),
                "key": key,
                "label": label,
                "status": status,
                "wall_s": round(wall_s, 6),
                "attempt": attempt,
                "backend": backend,
                "worker": worker,
                **extra,
            }
        )

    def summary(self, **extra) -> dict:
        """Write and return the summary record (counters + extras)."""
        record = {"event": "summary", "ts": time.time(), **self.counts, **extra}
        self._write(record)
        return record

    # ------------------------------------------------------------------
    @property
    def all_hits(self) -> bool:
        """True when every scheduled cell was served from the cache."""
        return self.counts["cells"] > 0 and self.counts["hits"] == self.counts["cells"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
