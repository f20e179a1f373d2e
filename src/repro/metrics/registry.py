"""Metric registry: counters, gauges, histograms, time series.

The registry is the metrics layer's hub, mirroring the tracer's shape
(:mod:`repro.telemetry.tracer`) so instrumentation reads the same at
every seam:

* ``get_metrics()`` returns the ambient registry — a process-wide
  **null registry** unless :func:`use_metrics` installs a real one, so
  instrumented hot paths cost one cached identity check when metrics
  are off;
* instruments are created on first use and cached by name; names are
  dotted (``insitu.sync_wait_s``) with the unit as the last component
  by convention;
* a DES :class:`~repro.des.engine.Engine` binds its virtual clock at
  construction, so gauge/time-series timestamps live on simulated
  seconds exactly like trace records.

Two ways in
-----------
Direct instrumentation (engine, controllers, RAPL, PoLiMER, faults)
calls the registry for facts no trace record carries; :class:`MetricsSink`
*feeds the registry off the tracer* — install it as (or chain it in
front of) a tracer sink and every complete-span duration and instant
lands in streaming histograms and counters without touching the
instrumented code. A fact has one source: what a record carries is
folded from the record, never counted again beside it. Tracer-fed
series are prefixed ``span.``/``event.`` to keep them apart from
first-class metrics.

The per-run :class:`MetricsReport` renders the registry three ways:
a terminal table, Prometheus text exposition (counters, gauges and
cumulative ``_bucket`` rows), and a JSON dict.
"""

from __future__ import annotations

import contextlib
import json
import re
from typing import Callable, Optional

from repro.metrics.histogram import StreamingHistogram
from repro.metrics.timeseries import RingBuffer
from repro.telemetry.sinks import Sink
from repro.util.stats import quantiles as exact_quantiles

__all__ = [
    "MetricRegistry",
    "MetricsReport",
    "MetricsSink",
    "NULL_METRICS",
    "NullMetricRegistry",
    "get_metrics",
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


class _GaugeM:
    """Last-written value plus a min/max envelope."""

    __slots__ = ("name", "value", "minimum", "maximum", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.samples += 1


class MetricRegistry:
    """Named instruments + the clock they are sampled on."""

    enabled = True

    def __init__(
        self,
        histogram_growth: float = 1.1,
        timeseries_capacity: int = 1024,
    ) -> None:
        self._histogram_growth = histogram_growth
        self._timeseries_capacity = timeseries_capacity
        self._counters: dict[str, _CounterM] = {}
        self._gauges: dict[str, _GaugeM] = {}
        self._histograms: dict[str, StreamingHistogram] = {}
        self._timeseries: dict[str, RingBuffer] = {}
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------ clock
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt a (virtual) clock for time-series timestamps."""
        self._clock = clock

    def now(self) -> float:
        clock = self._clock
        return clock() if clock is not None else 0.0

    # ------------------------------------------------------ instruments
    def counter(self, name: str) -> _CounterM:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = _CounterM(name)
        return c

    def gauge(self, name: str) -> _GaugeM:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = _GaugeM(name)
        return g

    def histogram(self, name: str) -> StreamingHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = StreamingHistogram(
                growth=self._histogram_growth
            )
        return h

    def timeseries(self, name: str) -> RingBuffer:
        t = self._timeseries.get(name)
        if t is None:
            t = self._timeseries[name] = RingBuffer(self._timeseries_capacity)
        return t

    def sample(self, name: str, value: float) -> None:
        """Push ``(now, value)`` onto the ring buffer called ``name``."""
        self.timeseries(name).push(self.now(), value)

    # ------------------------------------------------------------ views
    def report(self) -> "MetricsReport":
        return MetricsReport(self)


class NullMetricRegistry(MetricRegistry):
    """Allocation-free no-op registry; the process default.

    Instruments are shared inert singletons, so unconditional
    ``get_metrics().counter("x").inc()`` in cold paths stays cheap and
    hot paths can cache ``registry if registry.enabled else None``.
    """

    enabled = False

    class _NullCounter(_CounterM):
        __slots__ = ()

        def inc(self, delta: float = 1.0) -> None:
            pass

    class _NullGauge(_GaugeM):
        __slots__ = ()

        def set(self, value: float) -> None:
            pass

    class _NullHistogram(StreamingHistogram):
        __slots__ = ()

        def observe(self, value: float) -> None:
            pass

    class _NullRing(RingBuffer):
        __slots__ = ()

        def push(self, t: float, value: float) -> None:
            pass

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = self._NullCounter("")
        self._null_gauge = self._NullGauge("")
        self._null_histogram = self._NullHistogram()
        self._null_ring = self._NullRing(1)

    def bind_clock(self, clock) -> None:
        pass

    def counter(self, name: str) -> _CounterM:
        return self._null_counter

    def gauge(self, name: str) -> _GaugeM:
        return self._null_gauge

    def histogram(self, name: str) -> StreamingHistogram:
        return self._null_histogram

    def timeseries(self, name: str) -> RingBuffer:
        return self._null_ring

    def sample(self, name: str, value: float) -> None:
        pass


#: the process-wide default — safe to call, records nothing
NULL_METRICS = NullMetricRegistry()

_current: MetricRegistry | None = None


def get_metrics() -> MetricRegistry:
    """The ambient registry (:data:`NULL_METRICS` unless installed)."""
    current = _current
    return current if current is not None else NULL_METRICS


@contextlib.contextmanager
def use_metrics(registry: MetricRegistry):
    """Install ``registry`` as the ambient metric registry for a scope."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous


# ---------------------------------------------------------------------------
# tracer -> registry bridge


class MetricsSink(Sink):
    """Telemetry sink that folds trace records into a registry.

    * ``"X"`` complete spans  -> ``span.<name>.s`` duration histograms
      (plus ``span.<name>.energy_j`` when the span carries energy);
    * ``"i"`` instants        -> ``event.<name>`` counters.

    ``forward`` chains another sink behind the fold, so one tracer can
    feed the live registry *and* a Chrome trace file at once.
    """

    def __init__(self, registry: MetricRegistry, forward: Sink | None = None):
        self.registry = registry
        self.forward = forward

    def emit(self, record: dict) -> None:
        ph = record.get("ph")
        if ph == "X":
            name = record["name"]
            self.registry.histogram(f"span.{name}.s").observe(
                max(record.get("dur", 0.0), 0.0)
            )
            args = record.get("args") or {}
            energy = args.get("energy_j")
            if energy is not None:
                self.registry.histogram(f"span.{name}.energy_j").observe(
                    max(float(energy), 0.0)
                )
        elif ph == "i":
            self.registry.counter(f"event.{record['name']}").inc()
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
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}, "timeseries": {}}
        for name, c in sorted(reg._counters.items()):
            out["counters"][name] = c.value
        for name, g in sorted(reg._gauges.items()):
            out["gauges"][name] = {
                "value": g.value,
                "min": g.minimum,
                "max": g.maximum,
                "samples": g.samples,
            }
        for name, h in sorted(reg._histograms.items()):
            out["histograms"][name] = h.to_json()
        for name, t in sorted(reg._timeseries.items()):
            out["timeseries"][name] = t.to_json()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: list[str] = []
        reg = self.registry
        for name, c in sorted(reg._counters.items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {c.value:g}")
        for name, g in sorted(reg._gauges.items()):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {g.value:g}")
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
        if reg._gauges:
            lines.append("")
            lines.append("gauges (last / min / max):")
            for name, g in sorted(reg._gauges.items()):
                lines.append(
                    f"  {name:<40} {g.value:g} / {g.minimum:g} / {g.maximum:g}"
                )
        if reg._timeseries:
            lines.append("")
            lines.append("time series:")
            for name, t in sorted(reg._timeseries.items()):
                if len(t) == 0:
                    continue
                ts, vs = t.arrays()
                p50, p90 = exact_quantiles(vs, (0.5, 0.9))
                lines.append(
                    f"  {name:<34} {len(t):>5} samples over"
                    f" [{ts[0]:.4g}, {ts[-1]:.4g}] s"
                    f"  p50={p50:.4g} p90={p90:.4g}"
                )
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
