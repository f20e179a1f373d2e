"""End-to-end observability plane: real 2-worker campaigns.

ISSUE acceptance, pinned here:

* a 4-cell, 2-worker campaign under ``--trace PATH.jsonl`` produces
  **one** merged JSONL trace containing per-worker campaign lanes and
  the workers' own phase telemetry, and the merged stream passes
  ``validate_spans``;
* per-phase joule totals in the attribution report, read back from
  that trace, reconcile with the metrics registry's
  ``span.<phase>.energy_j`` sums exactly;
* shipping follows its consumer: a pooled batch ships worker records
  only under an enabled tracer, and results are bit-identical whether
  or not it ships.
"""

import json

import pytest

from repro.campaign import CampaignEngine, CellSpec
from repro.metrics import MetricRegistry, MetricsSink
from repro.obs.merge import PID_STRIDE
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Tracer,
    read_records,
    use_tracer,
    validate_spans,
)
from repro.workloads import JobConfig


def _specs():
    return [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",), dim=16, n_nodes=8, seed=s,
                n_verlet_steps=10,
            ),
            run_index=r,
        )
        for s in (1, 2)
        for r in (0, 1)
    ]


@pytest.fixture()
def shipped(tmp_path):
    """Run the acceptance campaign once, as ``run --jobs 2 --metrics
    --trace run.jsonl`` does; share it across assertions."""
    registry = MetricRegistry()
    path = tmp_path / "run.jsonl"
    tracer = Tracer(MetricsSink(registry, forward=JsonlSink(path)))
    engine = CampaignEngine(jobs=2)
    with use_tracer(tracer):
        results = engine.run_cells(_specs())
        engine.journal.summary(jobs=2, experiments=["acceptance"])
    engine.close()
    tracer.close()
    return results, read_records(path), registry, path


def test_merged_trace_has_per_worker_lanes_and_validates(shipped):
    _, records, _, _ = shipped
    assert validate_spans(records) == []
    # shipped worker records landed in the parent stream, re-stamped
    workers = {r["worker"] for r in records if "worker" in r}
    assert workers == {0, 1}
    for rec in records:
        wid = rec.get("worker")
        if wid is not None and rec.get("ph") != "M":
            block = rec["pid"] // PID_STRIDE
            assert block == wid + 1  # each worker owns its pid block
    # the campaign process shows one row per worker
    cell_tids = {
        r["tid"] for r in records if r.get("name") == "campaign.cell"
    }
    assert cell_tids == {1, 2}
    # and the workers' own phase telemetry is present
    names = {r.get("name") for r in records}
    assert {"phase.md", "phase.analysis", "insitu.sync"} <= names


def test_report_joules_reconcile_with_metrics_registry(shipped):
    from repro.obs.report import build_report, load_report_records

    _, _, registry, trace_path = shipped
    campaign, records = load_report_records(trace_path)
    assert campaign["experiments"] == ["acceptance"]
    report = build_report(records, campaign=campaign)
    assert report.by_phase  # phases actually shipped
    for name, bucket in report.by_phase.items():
        hist = registry.histogram(f"span.{name}.energy_j")
        if hist.count == 0:
            # zero-energy instants (cap actuation) never hit the fold
            assert bucket["energy_j"] == 0.0
            continue
        assert bucket["energy_j"] == pytest.approx(hist.total, rel=1e-12)
        assert bucket["count"] == hist.count
    # partition lanes and decision intervals came through
    assert sorted(report.by_rank) == [0, 1]  # the proxy's two partition lanes
    assert report.decisions > 0
    assert len(report.intervals) >= len(report.runs) >= 4


def test_sched_rows_journal_worker_stats(shipped):
    _, records, _, _ = shipped
    sched = [r for r in records if r["name"] == "campaign.sched"]
    assert sched and all(r["pid"] == 0 and r["ph"] == "i" for r in sched)
    last = sched[-1]["args"]
    assert last["final"] is True
    assert last["n_workers"] == 2
    assert last["queue_depth"] == 0
    wids = {w["wid"] for w in last["workers"]}
    assert wids == {0, 1}
    assert last["ship_records"] > 0


def test_unconsumed_batch_ships_nothing_and_results_match(shipped):
    """No tracer: nobody reads worker records, so the
    workers run unshipped — and the cells' results cannot tell. The
    decision is made per batch: the same warm pool ships once a tracer
    is installed."""
    shipped_results = shipped[0]
    serial = CampaignEngine(jobs=1).run_cells(_specs())

    engine = CampaignEngine(jobs=2)
    unshipped = engine.run_cells(_specs())
    assert engine.obs.absorbed == 0 and engine.obs.dropped == 0
    mem = MemorySink()
    with use_tracer(Tracer(mem)):
        engine.run_cells(_specs())  # no store: every cell runs again
    engine.close()
    assert engine.obs.absorbed > 0
    assert {r["worker"] for r in mem.records if "worker" in r} == {0, 1}

    # shipping must never perturb results: serial == unshipped == shipped
    assert serial == unshipped == shipped_results
    assert json.dumps(
        [r.total_time_s for r in unshipped]
    ) == json.dumps([r.total_time_s for r in shipped_results])
