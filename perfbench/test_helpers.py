"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import speed
from perfbench.layers import PER_LAYER
from perfbench.stats import Outcomes, digest, self_times, spread, tail
from perfbench.tracing import Tracer
from perfbench.workloads import (
    check_cells,
    chaos_gate,
    improvement_table,
    shape_holds,
)

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- tail rule
def test_tail_leaves_ten_samples_beyond():
    xs = list(range(42, 0, -1))  # unsorted on purpose
    value, pct, n = tail(xs)
    assert n == 42
    assert sum(x > value for x in xs) == 10
    assert value == 32
    assert pct == pytest.approx(100 * 32 / 42)


def test_tail_with_twenty_samples_is_the_median():
    value, pct, n = tail([float(x) for x in range(20, 0, -1)])
    assert (value, pct, n) == (10.0, 50.0, 20)


@pytest.mark.parametrize("n", [1, 10, 19])
def test_tail_falls_back_to_the_maximum(n):
    assert tail(range(n)) == (n - 1, 100.0, n)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)


# ------------------------------------------------------------ self time
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    fold = self_times(names, starts, ends, parents)
    assert fold["root"] == [1, 10.0, 6.0]
    assert fold["a"] == [1, 3.0, 2.0]
    assert fold["b"] == [1, 1.0, 1.0]
    assert fold["c"] == [1, 1.0, 1.0]
    assert sum(row[2] for row in fold.values()) == 10.0


def test_self_time_folds_repeated_names():
    fold = self_times(["x", "y", "y"], [0.0, 1.0, 3.0], [5.0, 2.0, 4.0], [-1, 0, 0])
    assert fold["y"] == [2, 2.0, 2.0]
    assert fold["x"] == [1, 5.0, 3.0]


def test_traced_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("leaf", leaf)
    middle_fn = tracer.wrap("middle", lambda: (traced_leaf(), traced_leaf()))
    root = tracer.begin("root")
    middle_fn()
    tracer.close(root)
    fold = tracer.fold()
    assert fold["leaf"][0] == 2 and fold["middle"][0] == 1
    assert sum(row[2] for row in fold.values()) == pytest.approx(fold["root"][1])
    assert fold["middle"][2] < fold["leaf"][2]


def test_generator_spans_exclude_suspended_time():
    tracer = Tracer()

    def process():
        time.sleep(0.002)
        got = yield "first"
        time.sleep(0.002)
        return got * 2

    traced = tracer.wrap_generator("proc", process)

    def outer():
        return (yield from traced())

    gen = outer()
    assert next(gen) == "first"
    time.sleep(0.05)  # suspended: not the generator's time
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    fold = tracer.fold()
    assert fold["proc"][0] == 2
    assert fold["proc"][1] < 0.04
    assert tracer.counts["proc.calls"] == 1


def test_charged_time_leaves_the_open_span():
    tracer = Tracer()
    root = tracer.begin("root")
    inner = tracer.begin("inner")
    time.sleep(0.01)
    tracer.charge("probe", 0.004)
    tracer.close(inner)
    tracer.charge("probe", 0.001)
    tracer.close(root)
    fold = tracer.fold()
    assert fold["probe"] == [2, 0.005, 0.005]
    assert fold["inner"][2] == pytest.approx(fold["inner"][1] - 0.004)
    assert sum(row[2] for row in fold.values()) == pytest.approx(fold["root"][1])


def test_patch_method_counts_and_restores():
    class Thing:
        def work(self, n):
            return n + 1

    original = Thing.__dict__["work"]
    tracer = Tracer()
    tracer.patch_method(
        Thing, "work", "thing.work", on_return=lambda r: tracer.count("ret", r)
    )
    assert Thing().work(2) == 3
    assert tracer.fold()["thing.work"][0] == 1
    assert tracer.counts["ret"] == 3
    tracer.restore()
    assert Thing.__dict__["work"] is original


# ---------------------------------------------------------- speed scale
def test_scale_divides_by_the_mean_probe():
    nominal = speed.NOMINAL_PROBE_S
    assert speed.scale(1.0, nominal) == pytest.approx(1.0)
    assert speed.scale(5.0, 2.5 * nominal) == pytest.approx(2.0)


def test_meter_scales_each_lap_by_the_probes_around_it(monkeypatch):
    # boundary probes: 1x, then 3x, then 2x the nominal time
    times = iter([1.0] * 4 + [3.0] * 4 + [2.0] * 4)
    monkeypatch.setattr(speed, "probe_s", lambda: next(times) * speed.NOMINAL_PROBE_S)
    monkeypatch.setattr(speed, "TICK_S", 3600.0)  # no probe inside a segment
    tracer = Tracer()
    meter = speed.Meter(tracer)
    meter.start()
    try:
        time.sleep(0.01)
        first = meter.lap()
        second = meter.lap()
    finally:
        meter.stop()
    assert len(meter.raw) == len(meter.scaled) == 2
    assert first == pytest.approx(meter.raw[0] / 2.0)
    assert second == pytest.approx(meter.raw[1] / 2.5)
    assert meter.raw[0] >= 0.01
    assert meter.reference_total_s == pytest.approx(24.0 * speed.NOMINAL_PROBE_S)
    assert meter.slowdown == pytest.approx(sum(meter.raw) / sum(meter.scaled))
    assert tracer.fold()["bench.reference"][0] == 12


def test_meter_ticks_probe_inside_a_segment_and_stop():
    meter = speed.Meter()
    meter.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 6 * speed.TICK_S:
        sum(range(1000))
    meter.lap()
    meter.stop()
    inside = len(meter._probes) - 2 * speed.BOUNDARY_PROBES
    assert inside >= 3
    # the ticks' time is not the segment's
    assert meter.raw[0] < time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_probe_takes_under_a_few_milliseconds():
    assert 0.00005 < speed.probe_s() < 0.02


# --------------------------------------------------------------- digests
def test_digest_is_exact_and_stable():
    assert digest(1.0) == digest(1.0)
    assert digest(0.1 + 0.2) != digest(0.3)
    assert len(digest(1.0, 2.0)) == 16


def test_check_cells_counts_every_mismatch():
    labels = ["a", "b", "c", "d"]
    totals = [1.0, 2.0, None, 4.0]
    pins = {"cells": {"a": digest(1.0), "b": digest(2.5), "c": digest(3.0), "d": digest(4.0)}}
    out = Outcomes()
    check_cells(out, labels, totals, pins)
    assert (out.attempted, out.failed) == (4, 2)
    assert out.reasons[0].startswith("b:") and out.reasons[1] == "c: raised"


def test_unpinned_cells_count_only_raised_ones():
    out = Outcomes()
    check_cells(out, ["a", "b"], [1.0, None], None)
    assert (out.attempted, out.failed) == (2, 1)


def test_table_digest_sees_one_ulp():
    totals = [90.0, 100.0, 110.0, 100.0]
    table = improvement_table(totals)
    assert table == [10.0, -10.0]
    assert digest(*table) != digest(*[10.0, -10.000000000000002])


def test_shape_wants_seesaw_up_and_power_aware_down():
    specs = [SimpleNamespace(approach=a) for a in ("seesaw", "power-aware") * 2]
    assert shape_holds(specs, [5.0, -3.0, 1.0, -1.0])[0]
    assert not shape_holds(specs, [5.0, 3.0, 1.0, -1.0])[0]


# ------------------------------------------------------ failure accounting
def test_failed_frac_counts_failures_over_attempts():
    out = Outcomes()
    for ok in (True, True, False, True):
        out.record(ok, "bad")
    assert out.failed_frac == 0.25
    assert not out.correct
    assert Outcomes().failed_frac == 1.0 and not Outcomes().correct


def test_chaos_gate_flags_each_problem():
    alloc = SimpleNamespace(total_w=100.0)
    fine = SimpleNamespace(verification_failures=0, allocation_log=[(1, alloc)])
    assert chaos_gate(fine, 100.0) == []
    assert chaos_gate(None, 100.0) == ["raised"]
    bad = SimpleNamespace(verification_failures=2, allocation_log=[(1, alloc), alloc])
    assert len(chaos_gate(bad, 99.0)) == 2


# -------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cell_p50_ms", "cell_tail_ms", "cpu_s", "peak_rss_mb",
    }
