"""Nothing is lost when a registry-only fact moves onto a trace record.

The registry used to be written directly by the engine, controllers,
RAPL, PoLiMER, the coupler and the fault injector. Each of those facts
now rides a trace record and reaches the registry only through
:class:`~repro.metrics.MetricsSink`. The counts and sums below were
read from the direct writes on the same two runs, under the old names
given in each comment. Every sum matches exactly: the records are
folded in the order the direct writes happened.
"""

import json

import pytest

from repro.cluster.node import THETA_NODE
from repro.experiments.cli import main
from repro.faults import FaultInjector, FaultPlan, use_faults
from repro.insitu import InsituConfig, run_insitu
from repro.insitu.replica import trajectory
from repro.metrics import MetricRegistry, MetricsSink
from repro.scenario import get_controller
from repro.telemetry import MemorySink, Tracer, use_tracer

#: one window of every kind, sized so each per-query hit fires on the
#: 2+2-rank, 4-step job
FAULTS = (
    "crash@0.4+0.3:rank0;cap_drop@0.8+2.5;cap_lag@0.2+3.0x0.05;"
    "cap_skew@1.4+2.0x-8.0;meas_drop@0.5+1.5:rank0;"
    "meas_stale@0.5+2.5:rank1;meas_garble@0.2+3.0x2.5:rank2;"
    "mpi_delay@0.2+2.0x0.002;slowdown@0.3+1.5x2.0:rank1"
)


def test_quick_fig3a_serial_keeps_every_fact(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main([
        "run", "fig3a", "--quick", "--no-cache",
        "--metrics", str(path), "--output", str(tmp_path / "out"),
    ]) == 0
    capsys.readouterr()
    hist = json.loads(path.read_text())["histograms"]

    def pin(name):
        return hist[name]["count"], hist[name]["sum"]

    # core.sync.slack_s
    assert pin("span.insitu.sync.slack_s") == (2800, 31971.679334802735)
    # power.cap_change_w
    assert pin("event.power.rapl.request.cap_change_w") == (
        4200,
        7188.170477183313,
    )
    # power.mean_cap_w (a gauge: samples, and the sum of the values set)
    assert pin("event.power.rapl.apply.mean_cap_w") == (4158, 457380.0)


@pytest.fixture(scope="module")
def faulted():
    """Two faulted in-situ runs (time-aware, then SeeSAw) from a cold
    trajectory cache, folded into one registry."""
    registry = MetricRegistry()
    mem = MemorySink()
    trajectory.cache_clear()
    results = []
    with use_tracer(Tracer(MetricsSink(registry, forward=mem))):
        for name in ("time-aware", "seesaw"):
            cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4)
            controller = get_controller(name).cls(440.0, 2, 2, THETA_NODE)
            with use_faults(FaultInjector(FaultPlan.from_spec(FAULTS))):
                results.append(run_insitu(cfg, controller))
    return registry.report().to_json(), mem.records, results


def test_faulted_insitu_counts_keep_every_fact(faulted):
    report, _, _ = faulted
    counters = report["counters"]
    expected = {
        "event.core.degraded_hold": 2,  # core.degraded_holds
        "event.core.stale_observation": 4,  # core.stale_observations
        "event.faults.cap_drop.hit": 16,  # faults.cap_dropped
        "event.faults.cap_lag.hit": 16,  # faults.cap_lagged
        "event.faults.cap_skew.hit": 12,  # faults.cap_skewed
        "event.faults.meas_drop.hit": 2,  # faults.meas_dropped
        "event.faults.meas_garble.hit": 6,  # faults.meas_garbled
        "event.faults.mpi_delay.hit": 32,  # faults.mpi_delays
        "event.faults.crash.hit": 2,  # faults.outage_stalls
        # faults.meas_stale read 8: the 2 window starts of the kind and
        # these 6 hits shared one name
        "event.faults.meas_stale.hit": 6,
    }
    for name, value in expected.items():
        assert counters[name] == value, name
    # faults.<kind>: one start per window and run
    starts = {n: v for n, v in counters.items() if n.endswith(".start")}
    assert len(starts) == 9 and set(starts.values()) == {2}
    # faults.injected
    assert sum(starts.values()) == 18


def test_faulted_insitu_histograms_keep_every_fact(faulted):
    report, _, _ = faulted
    hist = report["histograms"]
    expected = {
        # core.sync.slack_s
        "span.insitu.sync.slack_s": (8, 2.6146730362662516),
        # insitu.sync_wait_s
        "span.insitu.sync_wait.wait_s": (32, 3.898797309619673),
        # insitu.sim.work_s / insitu.ana.work_s
        "span.insitu.sync_wait.sim_work_s": (16, 11.019525298228885),
        "span.insitu.sync_wait.ana_work_s": (16, 7.241919761344529),
        # faults.outage_stall_s
        "event.faults.crash.hit.stall_s": (2, 0.26173896385321327),
        # power.cap_change_w
        "event.power.rapl.request.cap_change_w": (16, 0.10450754961033226),
        # power.mean_cap_w
        "event.power.rapl.apply.mean_cap_w": (8, 880.0),
    }
    for name, (count, total) in expected.items():
        assert (hist[name]["count"], hist[name]["sum"]) == (count, total), name


def test_faulted_insitu_run_facts_sit_on_records(faulted):
    _, records, results = faulted
    runs = [r for r in records if r["ph"] == "E" and r["name"] == "des.run"]
    # des.runs, des.events_per_run and des.virtual_time_s
    assert len(runs) == 2
    assert sum(r["args"]["events"] for r in runs) == 286
    assert [r["ts"] for r in runs] == [res.virtual_time_s for res in results]
    assert all(r["args"]["heap_compactions"] == 0 for r in runs)
    # insitu.replica.hits / insitu.replica.misses
    assert sum(res.replica_hits for res in results) == 48
    assert sum(res.replica_misses for res in results) == 12
