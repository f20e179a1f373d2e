"""Campaign observability plane: shipping, live watch, attribution.

SeeSAw's whole argument is visibility into *where* time and joules go
under a power cap — yet campaign workers execute cells in subprocesses
whose tracer records die with the worker. This package is
the observability plane that carries those signals across the worker
boundary and puts them in front of a human mid-run (DESIGN.md §14):

* :mod:`repro.obs.ship` — the worker side: a bounded, drop-counting
  :class:`ShippingSink` that buffers tracer records inside a pool
  worker and hands them back as one batch piggybacked on the result
  frame, so shipping never adds messages or stalls scheduling;
* :mod:`repro.obs.merge` — the parent side: a :class:`TelemetryMux`
  that re-stamps shipped records with ``worker``/``cell`` identity
  onto collision-free trace lanes and merges them into the parent's
  ambient tracer sink, so ``run --trace`` writes one coherent trace
  for the whole campaign;
* :mod:`repro.obs.watch` — ``seesaw-experiments campaign watch``: an
  in-terminal, refresh-in-place dashboard (worker utilization, queue
  depth, dispatches, ETA, cache hit rate, rolling power sparkline per
  controller) driven purely by tailing the JSONL trace; degrades to
  deterministic plain-text snapshots when stdout is not a TTY;
* :mod:`repro.obs.report` / :mod:`repro.obs.html` — the one trace
  fold, which ``trace`` and the watch read too, and ``campaign
  report``: the SeeSAw-style energy attribution table, from the same
  trace (joules and
  wall time by rank × phase × controller decision interval, MD vs
  analysis vs sync-wait vs cap actuation) rendered as text, JSON, or
  a self-contained static HTML report with inline SVG timelines.

Shipping is consumer-driven: workers ship a batch's records only when
the parent has an enabled tracer to merge them into, and campaign
artifacts are bit-identical either way.
"""

from repro.obs.merge import TelemetryMux
from repro.obs.report import AttributionReport, build_report, load_report_records
from repro.obs.ship import ShippingSink
from repro.obs.watch import WatchModel, watch_journal

__all__ = [
    "AttributionReport",
    "ShippingSink",
    "TelemetryMux",
    "WatchModel",
    "build_report",
    "load_report_records",
    "watch_journal",
]
