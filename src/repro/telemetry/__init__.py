"""Tracing & metrics for the simulation stack (DESIGN.md §9).

The reproduction's argument — like the paper's — is about *when* things
happen: controllers observing (time, power) tuples, partitions reaching
synchronization points together, caps landing after their actuation
delay. This package makes that visible:

* :class:`Tracer` — nestable spans, instants, typed counters/gauges,
  timestamped on the DES **virtual clock** once an engine binds it;
* sinks — :class:`NullSink` (default, near-zero cost),
  :class:`MemorySink` (tests), :class:`JsonlSink` /
  :class:`JournalSink` (streaming JSONL, campaign journal), and
  :class:`ChromeTraceSink` (opens in ``chrome://tracing`` / Perfetto);
* :func:`summarize` — per-phase time/power breakdown and counter report;
* :func:`get_tracer` / :func:`use_tracer` — the ambient-tracer pattern
  (same shape as :func:`repro.campaign.use_engine`) through which the
  CLI's ``--trace`` reaches every layer without parameter plumbing.

Instrumented seams: DES event dispatch, controller decisions
(``core``), RAPL cap requests/actuations (``power``), compute phases
and sync waits (``insitu``), campaign cells and cache outcomes
(``campaign``).
"""

from repro.telemetry.chrome import ChromeTraceSink, to_chrome_events
from repro.telemetry.sinks import (
    JournalSink,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
)
from repro.telemetry.summary import (
    TelemetrySummary,
    summarize,
    validate_spans,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    Counter,
    Gauge,
    NullTracer,
    SpanHandle,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "ChromeTraceSink",
    "Counter",
    "Gauge",
    "JournalSink",
    "JsonlSink",
    "MemorySink",
    "NULL_TRACER",
    "NullSink",
    "NullTracer",
    "Sink",
    "SpanHandle",
    "TelemetrySummary",
    "Tracer",
    "get_tracer",
    "summarize",
    "to_chrome_events",
    "use_tracer",
    "validate_spans",
]
