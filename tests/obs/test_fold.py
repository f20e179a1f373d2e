"""The one trace fold: DES sync-wait is PoLiMER's wait, each rank's
attributed seconds fit in the run, and the watch and the report read
the same totals off a proxy trace."""

import pytest

from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController
from repro.experiments.runner import build_controller
from repro.insitu import InsituConfig, run_insitu
from repro.obs.report import build_report
from repro.obs.watch import WatchModel
from repro.telemetry import JsonlSink, MemorySink, Tracer, read_records, use_tracer
from repro.workloads import JobConfig, run_job


@pytest.fixture(scope="module")
def des_trace():
    # the ``trace`` subcommand's shape: 2+2 ranks, 6 steps, 110 W
    cfg = InsituConfig(
        n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=6, power_cap_w=110.0
    )
    controller = SeeSAwController(
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        result = run_insitu(cfg, controller)
    return cfg, result, sink.records


def test_des_ranks_attribute_at_most_the_run(des_trace):
    cfg, result, records = des_trace
    report = build_report(records)
    assert sorted(report.by_rank) == list(range(cfg.world_size))
    for rank, bucket in report.by_rank.items():
        assert bucket["wall_s"] <= result.virtual_time_s + 1e-9, rank
    assert set(report.by_category) == {
        "md", "analysis", "sync_wait", "cap_actuation"
    }


def test_des_sync_wait_is_polimer_wait(des_trace):
    cfg, _, records = des_trace
    begins, waits = {}, []
    for rec in records:
        if rec["name"] != "insitu.sync_wait":
            continue
        lane = (rec["pid"], rec["tid"])
        if rec["ph"] == "B":
            begins[lane] = rec["ts"]
        elif rec["ph"] == "E":
            waits.append(rec["ts"] - begins.pop(lane))
    assert len(waits) == cfg.n_syncs * cfg.world_size
    report = build_report(records)
    sync = report.by_category["sync_wait"]
    assert sync["count"] == len(waits)
    assert sync["wall_s"] == pytest.approx(sum(waits), rel=1e-12)
    # the enclosing sync and exchange pairs hold phase compute
    assert "insitu.exchange" not in report.by_phase
    assert "insitu.sync" not in report.by_phase


def test_watch_and_report_agree_on_a_proxy_trace(tmp_path):
    path = tmp_path / "run.jsonl"
    sink = JsonlSink(path)
    with use_tracer(Tracer(sink)):
        for approach in ("seesaw", "static"):
            cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=30, seed=5)
            run_job(cfg, build_controller(approach, cfg))
    sink.close()
    model = WatchModel(path)
    model.refresh()
    watch = model.state
    report = build_report(read_records(path))
    assert report.decisions > 0 and report.actuations > 0
    assert watch.trace.total_energy_j == report.total_energy_j
    assert watch.trace.decisions == report.decisions
    assert watch.trace.actuations == report.actuations
    work_j = sum(
        report.by_category[c]["energy_j"] for c in ("md", "analysis")
    )
    assert sum(watch.energy_j.values()) == pytest.approx(work_j, rel=1e-12)


def test_des_sync_wait_is_charged_its_joules(des_trace):
    """Each wait pair's end carries the node counter's draw over the
    wait, and the fold charges sync-wait exactly those joules."""
    _, _, records = des_trace
    begins, pairs = {}, []
    for rec in records:
        if rec["name"] != "insitu.sync_wait":
            continue
        lane = (rec["pid"], rec["tid"])
        if rec["ph"] == "B":
            begins[lane] = rec["ts"]
        elif rec["ph"] == "E":
            pairs.append((rec["ts"] - begins.pop(lane), rec["args"]["energy_j"]))
    waited = [(wall, joules) for wall, joules in pairs if wall > 0]
    assert waited
    for wall, joules in waited:
        # an idle node draws at most its wait power
        assert 0 < joules <= THETA_NODE.p_wait_watts * wall * (1 + 1e-9)
    sync = build_report(records).by_category["sync_wait"]
    assert sync["energy_j"] == pytest.approx(
        sum(joules for _, joules in pairs), rel=1e-12
    )
    assert sync["energy_j"] > 0
