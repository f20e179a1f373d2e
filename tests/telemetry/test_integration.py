"""Telemetry threaded through the real stack: DES, controllers, RAPL,
the in-situ coupler, and the campaign engine."""

import json

import numpy as np
import pytest

from repro.campaign import CampaignEngine, CellSpec
from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController
from repro.des.engine import Engine
from repro.insitu import InsituConfig, run_insitu
from repro.obs.report import build_report
from repro.telemetry import (
    ChromeTraceSink,
    MemorySink,
    Tracer,
    use_tracer,
    validate_spans,
)
from repro.workloads import JobConfig


def small_insitu_cfg(**kw):
    defaults = dict(
        n_sim_ranks=2, n_ana_ranks=2, dim=1, n_verlet_steps=4, seed=7
    )
    defaults.update(kw)
    return InsituConfig(**defaults)


def seesaw_for(cfg):
    return SeeSAwController(
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )


@pytest.fixture(scope="module")
def traced_run():
    cfg = small_insitu_cfg()
    sink = ChromeTraceSink()
    with use_tracer(Tracer(sink)):
        result = run_insitu(cfg, seesaw_for(cfg))
    return cfg, result, sink


def test_traced_run_covers_all_layers(traced_run):
    _, _, sink = traced_run
    cats = {r.get("cat") for r in sink.records}
    assert {"des", "core", "power", "insitu"} <= cats


def test_traced_run_spans_are_well_formed(traced_run):
    _, _, sink = traced_run
    assert validate_spans(sink.records) == []


def test_engine_binds_sim_clock(traced_run):
    _, result, sink = traced_run
    # every timestamp lives on the virtual clock: bounded by the
    # run's virtual makespan, far below any wall-clock epoch
    ts = [r["ts"] for r in sink.records if r["ph"] != "M"]
    assert max(ts) <= result.virtual_time_s + 1e-9
    assert min(ts) >= 0.0


def test_sync_wait_spans_once_per_rank_per_sync(traced_run):
    cfg, _, sink = traced_run
    waits = [
        r
        for r in sink.records
        if r["ph"] == "B" and r["name"] == "insitu.sync_wait"
    ]
    assert len(waits) == cfg.n_syncs * cfg.world_size
    # one lane per rank, none on the engine lane
    assert {r["tid"] for r in waits} == set(range(1, cfg.world_size + 1))


def test_controller_decisions_and_cap_actuations_present(traced_run):
    cfg, result, sink = traced_run
    decisions = [
        r for r in sink.records if r["name"] == "core.seesaw.decision"
    ]
    assert len(decisions) == len(result.allocation_log)
    for d in decisions:
        args = d["args"]
        assert args["after_sim_w"] + args["after_ana_w"] == pytest.approx(
            cfg.world_size * cfg.power_cap_w, rel=1e-6
        )
    applies = [r for r in sink.records if r["name"] == "power.rapl.apply"]
    assert applies, "cap actuations must be traced"


def test_chrome_trace_loads_and_nests(tmp_path, traced_run):
    _, _, sink = traced_run
    path = sink.write(tmp_path / "trace.json")
    doc = json.loads(path.read_text())
    evs = doc["traceEvents"]
    assert isinstance(evs, list)
    # nested spans: an insitu.sync B strictly contains an
    # insitu.sync_wait B/E pair on the same lane
    sync_b = next(
        e for e in evs if e["ph"] == "B" and e["name"] == "insitu.sync"
    )
    lane = (sync_b["pid"], sync_b["tid"])
    wait_b = next(
        e
        for e in evs
        if e["ph"] == "B"
        and e["name"] == "insitu.sync_wait"
        and (e["pid"], e["tid"]) == lane
    )
    sync_e = next(
        e
        for e in evs
        if e["ph"] == "E"
        and e["name"] == "insitu.sync"
        and (e["pid"], e["tid"]) == lane
    )
    assert sync_b["ts"] <= wait_b["ts"] <= sync_e["ts"]


def test_summary_reports_phase_power(traced_run):
    cfg, result, sink = traced_run
    report = build_report(sink.records)
    phases = [b for n, b in report.by_phase.items() if n.startswith("phase.")]
    assert phases, "phase table must not be empty"
    for stat in phases:
        assert stat["wall_s"] > 0
        # phases draw between the RAPL floor and well under 2x TDP
        assert 50.0 < stat["energy_j"] / stat["wall_s"] < 2 * THETA_NODE.tdp_watts
    # counts come from the spans and instants themselves
    waits = report.spans[("insitu", "insitu.sync_wait")]
    assert waits["count"] == cfg.n_syncs * cfg.world_size
    assert report.instants["core.seesaw.decision"] == len(result.allocation_log)
    limited = sum(
        1
        for r in sink.records
        if r["ph"] == "X"
        and r["name"].startswith("phase.")
        and r["args"]["limited"]
    )
    assert limited > 0
    assert sum(s["limited"] for s in phases) == limited


def test_untraced_engine_emits_nothing():
    sink = MemorySink()
    tracer = Tracer(sink)
    eng = Engine()  # constructed outside any use_tracer scope
    with use_tracer(tracer):
        eng.schedule(1.0, lambda: None)
        eng.run()
    assert sink.records == []


def test_campaign_cells_traced():
    sink = MemorySink()
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=4, seed=3)
    cells = [
        CellSpec("static", cfg, 0),
        CellSpec("static", cfg, 0),  # duplicate -> dedup
    ]
    with use_tracer(Tracer(sink)):
        engine = CampaignEngine()
        engine.run_cells(cells)
    cell_spans = [r for r in sink.records if r["name"] == "campaign.cell"]
    assert len(cell_spans) == 2
    # the cache outcome is the span's status: one run, one dedup
    statuses = sorted(r["args"]["status"] for r in cell_spans)
    assert statuses == ["done", "dup"]
    assert {r["ph"] for r in sink.records} <= {"B", "E", "X", "i", "M"}


def test_trace_does_not_perturb_results():
    """A traced run and an untraced run are numerically identical."""
    cfg = small_insitu_cfg()
    base = run_insitu(cfg, seesaw_for(cfg))
    with use_tracer(Tracer(MemorySink())):
        traced = run_insitu(cfg, seesaw_for(cfg))
    assert traced.virtual_time_s == base.virtual_time_s
    assert traced.verification_failures == base.verification_failures
    for (s0, a0), (s1, a1) in zip(
        base.allocation_log, traced.allocation_log
    ):
        assert s0 == s1
        np.testing.assert_array_equal(a0.sim_caps_w, a1.sim_caps_w)
        np.testing.assert_array_equal(a0.ana_caps_w, a1.ana_caps_w)
