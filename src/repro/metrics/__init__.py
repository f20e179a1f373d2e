"""Streaming metrics and the controller audit journal.

The observability layer on top of the telemetry tracer — see
DESIGN.md §10:

* :mod:`repro.metrics.registry` — counters and streaming histograms,
  every one a fold of trace records by :class:`MetricsSink`;
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
    use_metrics,
)

__all__ = [
    "AuditJournal",
    "AuditRecord",
    "MetricRegistry",
    "MetricsReport",
    "MetricsSink",
    "NULL_AUDIT",
    "StreamingHistogram",
    "get_audit",
    "load_journal",
    "use_audit",
    "use_metrics",
]
