"""Registry, the tracer fold, and report tests."""

import json

import pytest

from repro.metrics import MetricRegistry, MetricsSink
from repro.telemetry import MemorySink, Tracer, use_tracer


def test_instruments_are_cached_by_name():
    reg = MetricRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")


# ---------------------------------------------------------------------------
# tracer -> registry bridge


def test_metrics_sink_folds_spans_and_instants():
    reg = MetricRegistry()
    tracer = Tracer(MetricsSink(reg), clock=iter(range(100)).__next__)
    tracer.complete("work", 2.0, cat="t", energy_j=5.0)
    tracer.complete("work", 4.0, cat="t")
    tracer.instant("boom", cat="t")
    tracer.instant("boom", cat="t")
    h = reg.histogram("span.work.s")
    assert h.count == 2
    assert h.total == pytest.approx(6.0)
    assert reg.histogram("span.work.energy_j").count == 1
    # an instant is counted once per record
    assert reg.counter("event.boom").value == 2
    assert set(reg._histograms) == {"span.work.s", "span.work.energy_j"}


def test_metrics_sink_folds_unit_args_of_spans_ends_and_instants():
    reg = MetricRegistry()
    tracer = Tracer(MetricsSink(reg), clock=iter(range(100)).__next__)
    tracer.complete("w", 1.0, wait_s=0.5, cap_w=90, n=3, label="x_s")
    span = tracer.begin("sync", start_s=9.0)  # a begin record is not folded
    span.end(wait_s=2.0, energy_j=4.0)
    tracer.instant("req", cap_change_w=3.0, seq=7)
    tracer.instant("req", cap_change_w=1.0)
    assert reg.histogram("span.w.wait_s").total == 0.5
    assert reg.histogram("span.w.cap_w").total == 90.0
    assert reg.histogram("span.sync.wait_s").count == 1
    assert reg.histogram("span.sync.energy_j").total == 4.0
    assert reg.histogram("event.req.cap_change_w").count == 2
    assert reg.histogram("event.req.cap_change_w").total == 4.0
    assert reg.counter("event.req").value == 2
    # an E record has no duration of its own; no arg without a unit
    # suffix, and no string, is folded
    assert set(reg._histograms) == {
        "span.w.s",
        "span.w.wait_s",
        "span.w.cap_w",
        "span.sync.wait_s",
        "span.sync.energy_j",
        "event.req.cap_change_w",
    }


def test_metrics_sink_skips_values_a_histogram_cannot_hold():
    reg = MetricRegistry()
    tracer = Tracer(MetricsSink(reg), clock=iter(range(100)).__next__)
    for value in (True, None, [1.0], {"a": 1.0}, -1.0, float("nan"),
                  float("inf")):
        tracer.instant("odd", x_s=value)
    tracer.instant("odd", x_s=2)
    assert reg.counter("event.odd").value == 8
    assert reg.histogram("event.odd.x_s").count == 1
    assert reg.histogram("event.odd.x_s").total == 2.0


def test_metrics_sink_forwards_to_chained_sink():
    reg = MetricRegistry()
    mem = MemorySink()
    tracer = Tracer(MetricsSink(reg, forward=mem), clock=iter(range(10)).__next__)
    tracer.complete("x", 1.0, cat="t")
    assert reg.histogram("span.x.s").count == 1
    assert any(r["name"] == "x" for r in mem.records)


def test_metrics_sink_composes_with_use_tracer():
    reg = MetricRegistry()
    with use_tracer(Tracer(MetricsSink(reg))):
        from repro.telemetry import get_tracer

        get_tracer().complete("y", 1.5, cat="t")
    assert reg.histogram("span.y.s").count == 1


# ---------------------------------------------------------------------------
# reports


def _populated_registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("runs").inc(4)
    for v in (0.1, 0.2, 0.4):
        reg.histogram("wait.s").observe(v)
    return reg


def test_report_json_shape():
    data = _populated_registry().report().to_json()
    assert set(data) == {"counters", "histograms"}
    assert data["counters"]["runs"] == 4
    assert data["histograms"]["wait.s"]["count"] == 3
    json.dumps(data)  # must be serializable


def test_report_prometheus_exposition():
    text = _populated_registry().report().to_prometheus()
    assert "# TYPE runs counter" in text
    assert "runs 4" in text
    assert "# TYPE wait_s histogram" in text
    assert 'wait_s_bucket{le="+Inf"} 3' in text
    assert "wait_s_count 3" in text
    # dotted names are sanitized
    assert "wait.s" not in text


def test_report_render_mentions_every_instrument():
    text = _populated_registry().report().render()
    for needle in ("runs", "wait.s", "p50", "p99"):
        assert needle in text


def test_report_write_creates_parent_dirs(tmp_path):
    reg = _populated_registry()
    nested_json = tmp_path / "a" / "b" / "metrics.json"
    reg.report().write(nested_json)
    assert json.loads(nested_json.read_text())["counters"]["runs"] == 4
    nested_prom = tmp_path / "c" / "d" / "metrics.prom"
    reg.report().write(nested_prom)
    assert "# TYPE runs counter" in nested_prom.read_text()
