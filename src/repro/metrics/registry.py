"""Metric registry: counters and streaming histograms folded from the trace.

Every metric is a fold of trace records. :class:`MetricsSink` is the
only writer of a :class:`MetricRegistry`: install it as (or chain it in
front of) a tracer sink and every record lands in the registry by one
rule, without touching the instrumented code:

* an ``"X"`` complete span records its duration in ``span.<name>.s``;
* an ``"i"`` instant counts once in ``event.<name>``;
* a numeric arg whose name ends in a unit (``_s``, ``_w`` or ``_j``) on
  an ``"X"``, ``"E"`` or ``"i"`` record lands in the
  ``span.<name>.<arg>`` (spans) or ``event.<name>.<arg>`` (instants)
  histogram.

A fact therefore has one source, the record that carries it. Pool
workers ship their records to the parent, which folds them into the
same registry, so a report holds the same facts whether the cells ran
serially or on a pool.

The per-run :class:`MetricsReport` renders the registry three ways:
a terminal table, Prometheus text exposition (counters and cumulative
``_bucket`` rows), and a JSON dict.
"""

from __future__ import annotations

import contextlib
import json
import math
import re

from repro.metrics.histogram import StreamingHistogram
from repro.telemetry.sinks import Sink

__all__ = [
    "MetricRegistry",
    "MetricsReport",
    "MetricsSink",
    "use_metrics",
]


class _CounterM:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta


class MetricRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, _CounterM] = {}
        self._histograms: dict[str, StreamingHistogram] = {}

    def counter(self, name: str) -> _CounterM:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = _CounterM(name)
        return c

    def histogram(self, name: str) -> StreamingHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = StreamingHistogram()
        return h

    def report(self) -> "MetricsReport":
        return MetricsReport(self)


@contextlib.contextmanager
def use_metrics(registry: MetricRegistry):
    """A scope that yields ``registry`` and installs nothing.

    Nothing reads an ambient registry any more: the registry is filled
    only by a :class:`MetricsSink` on the tracer. The scope is kept for
    perfbench's fig3a-observed workload, which still enters it.
    """
    yield registry


# ---------------------------------------------------------------------------
# tracer -> registry fold

#: arg-name suffixes that mark a unit-bearing quantity
_UNITS = ("_s", "_w", "_j")


class MetricsSink(Sink):
    """Telemetry sink that folds trace records into a registry (see the
    module docstring for the rule).

    An arg value a log-bucket histogram cannot hold (negative, NaN or
    infinite) is skipped, as are bools, ``None``, strings, lists and
    dicts. ``forward`` chains another sink behind the fold, so one
    tracer can feed the registry *and* a trace file at once.
    """

    def __init__(self, registry: MetricRegistry, forward: Sink | None = None):
        self.registry = registry
        self.forward = forward

    def emit(self, record: dict) -> None:
        ph = record.get("ph")
        if ph == "X" or ph == "E":
            prefix = f"span.{record['name']}"
            if ph == "X":
                self.registry.histogram(f"{prefix}.s").observe(
                    max(record.get("dur", 0.0), 0.0)
                )
        elif ph == "i":
            prefix = f"event.{record['name']}"
            self.registry.counter(prefix).inc()
        else:
            prefix = None
        args = record.get("args") if prefix is not None else None
        if args:
            histogram = self.registry.histogram
            for key, value in args.items():
                if (
                    key.endswith(_UNITS)
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and 0.0 <= value < math.inf
                ):
                    histogram(f"{prefix}.{key}").observe(value)
        if self.forward is not None:
            self.forward.emit(record)

    def close(self) -> None:
        if self.forward is not None:
            self.forward.close()


# ---------------------------------------------------------------------------
# report rendering

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    out = _PROM_BAD.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


class MetricsReport:
    """Snapshot renderer for one registry (text / Prometheus / JSON)."""

    #: quantiles surfaced by the table and JSON views
    QS = (0.5, 0.9, 0.99)

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        reg = self.registry
        return {
            "counters": {
                name: c.value for name, c in sorted(reg._counters.items())
            },
            "histograms": {
                name: h.to_json() for name, h in sorted(reg._histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: list[str] = []
        reg = self.registry
        for name, c in sorted(reg._counters.items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {c.value:g}")
        for name, h in sorted(reg._histograms.items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} histogram")
            for le, cum in h.cumulative_buckets():
                lines.append(f'{pname}_bucket{{le="{le:g}"}} {cum}')
            lines.append(f'{pname}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{pname}_sum {h.total:g}")
            lines.append(f"{pname}_count {h.count}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Human-readable terminal report."""
        reg = self.registry
        lines = ["== metrics report =="]
        if reg._histograms:
            lines.append("")
            lines.append(
                f"  {'histogram':<34} {'count':>7} {'mean':>10}"
                f" {'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}"
            )
            for name, h in sorted(reg._histograms.items()):
                if h.count == 0:
                    continue
                p50, p90, p99 = h.quantiles(self.QS)
                lines.append(
                    f"  {name:<34} {h.count:>7} {h.mean:>10.4g}"
                    f" {p50:>10.4g} {p90:>10.4g} {p99:>10.4g}"
                    f" {h.maximum:>10.4g}"
                )
        if reg._counters:
            lines.append("")
            lines.append("counters:")
            for name, c in sorted(reg._counters.items()):
                lines.append(f"  {name:<40} {c.value:g}")
        return "\n".join(lines)

    def write(self, path) -> None:
        """Write the report to ``path``: JSON for ``.json``, Prometheus
        text otherwise. Missing parent directories are created."""
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        else:
            path.write_text(self.to_prometheus())
