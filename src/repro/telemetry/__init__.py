"""Tracing & metrics for the simulation stack (DESIGN.md §9).

The reproduction's argument — like the paper's — is about *when* things
happen: controllers observing (time, power) tuples, partitions reaching
synchronization points together, caps landing after their actuation
delay. This package makes that visible:

* :class:`Tracer` — nestable spans and instants, timestamped on the
  DES **virtual clock** once an engine binds it; a count is the number
  of records that carry it (:class:`~repro.metrics.MetricsSink` folds
  them into a registry);
* sinks — :class:`NullSink` (default, near-zero cost),
  :class:`MemorySink` (tests), :class:`JsonlSink` (streaming JSONL,
  read back by :func:`read_records`), and :class:`ChromeTraceSink`
  (opens in ``chrome://tracing`` / Perfetto);
* :func:`summarize` — per-phase time/power breakdown, span totals and
  instant counts;
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
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    read_records,
    tail_records,
)
from repro.telemetry.summary import (
    TelemetrySummary,
    summarize,
    validate_spans,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanHandle,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "ChromeTraceSink",
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
    "read_records",
    "summarize",
    "tail_records",
    "to_chrome_events",
    "use_tracer",
    "validate_spans",
]
