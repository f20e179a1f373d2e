"""Chrome ``trace_event`` exporter.

Buffers tracer records and writes the JSON object format understood by
``chrome://tracing`` and https://ui.perfetto.dev: a ``traceEvents``
array of events with microsecond timestamps. Span begin/end pairs,
complete ("X") spans, instants and process/thread metadata all map
1:1 onto Chrome phases, so a traced run opens directly in the viewer
with one row per simulated rank and one process per simulation run.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.sinks import MemorySink

__all__ = ["ChromeTraceSink", "to_chrome_events"]

#: tracer timestamps are seconds; Chrome wants microseconds
_US = 1e6


def to_chrome_events(records: list[dict]) -> list[dict]:
    """Convert tracer records to Chrome ``traceEvents`` dicts."""
    events: list[dict] = []
    for rec in records:
        ph = rec["ph"]
        ev: dict = {
            "name": rec["name"],
            "cat": rec.get("cat") or "default",
            "ph": ph,
            "ts": rec["ts"] * _US,
            "pid": rec.get("pid", 0),
            "tid": rec.get("tid", 0),
        }
        args = rec.get("args")
        if ph == "X":
            ev["dur"] = rec.get("dur", 0.0) * _US
        if ph == "i":
            ev["s"] = "t"  # thread-scoped instant
        if args:
            ev["args"] = args
        events.append(ev)
    return events


class ChromeTraceSink(MemorySink):
    """In-memory sink with a Chrome-trace ``write``/``render``.

    The raw records stay available on :attr:`records` (the summary
    report consumes them); :meth:`write` exports the Chrome JSON.
    """

    def render(self) -> dict:
        """The full trace object (``traceEvents`` + metadata)."""
        return {
            "traceEvents": to_chrome_events(self.records),
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated-seconds * 1e6"},
        }

    def write(self, path: Path | str) -> Path:
        """Write the trace JSON to ``path`` and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.render()) + "\n")
        return path
