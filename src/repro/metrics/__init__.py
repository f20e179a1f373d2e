"""Streaming metrics and the controller audit journal.

The observability layer on top of (and independent of) the telemetry
tracer — see DESIGN.md §10:

* :mod:`repro.metrics.registry` — counters, gauges, streaming
  histograms and virtual-clock time series behind an ambient
  ``get_metrics()`` / ``use_metrics()`` pair;
* :mod:`repro.metrics.audit` — every controller decision recorded,
  replayable and diffable.
"""

from repro.metrics.audit import (
    AuditJournal,
    AuditRecord,
    NULL_AUDIT,
    get_audit,
    load_journal,
    use_audit,
)
from repro.metrics.histogram import StreamingHistogram
from repro.metrics.registry import (
    MetricRegistry,
    MetricsReport,
    MetricsSink,
    NULL_METRICS,
    NullMetricRegistry,
    get_metrics,
    use_metrics,
)
from repro.metrics.timeseries import PeriodicSampler, RingBuffer

__all__ = [
    "AuditJournal",
    "AuditRecord",
    "MetricRegistry",
    "MetricsReport",
    "MetricsSink",
    "NULL_AUDIT",
    "NULL_METRICS",
    "NullMetricRegistry",
    "PeriodicSampler",
    "RingBuffer",
    "StreamingHistogram",
    "get_audit",
    "get_metrics",
    "load_journal",
    "use_audit",
    "use_metrics",
]
