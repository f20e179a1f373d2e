"""End-to-end observability plane: real 2-worker campaigns.

ISSUE acceptance, pinned here:

* a 4-cell, 2-worker campaign under ``--trace`` produces **one**
  merged Chrome trace containing per-worker campaign lanes and the
  workers' own phase telemetry, and the merged stream passes
  ``validate_spans``;
* per-phase joule totals in the attribution report reconcile with the
  metrics registry's ``span.<phase>.energy_j`` sums exactly;
* shipping follows its consumers: a pooled batch ships worker records
  only under an enabled tracer or a file-backed journal, and results
  are bit-identical whether or not it ships.
"""

import json

import pytest

from repro.campaign import CampaignEngine, CellSpec, RunJournal
from repro.campaign.journal import read_records
from repro.metrics import MetricRegistry, MetricsSink, use_metrics
from repro.obs.merge import PID_STRIDE
from repro.telemetry import MemorySink, Tracer, use_tracer, validate_spans
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
    """Run the acceptance campaign once; share it across assertions."""
    registry = MetricRegistry()
    mem = MemorySink()
    journal = RunJournal(tmp_path / "run.jsonl")
    engine = CampaignEngine(jobs=2, journal=journal)
    with use_metrics(registry), use_tracer(Tracer(MetricsSink(registry, forward=mem))):
        results = engine.run_cells(_specs())
    engine.close()
    journal.close()
    return results, mem.records, registry, journal.path


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

    _, _, registry, journal_path = shipped
    campaign, telemetry = load_report_records(journal_path)
    report = build_report(telemetry, campaign=campaign)
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
    _, _, _, journal_path = shipped
    sched = [r for r in read_records(journal_path) if r["event"] == "sched"]
    assert sched and sched[-1]["final"] is True
    last = sched[-1]
    assert last["n_workers"] == 2
    assert last["queue_depth"] == 0
    wids = {w["wid"] for w in last["workers"]}
    assert wids == {0, 1}
    assert last["ship_records"] > 0


def test_unconsumed_batch_ships_nothing_and_results_match(shipped):
    """No tracer, no file journal: nobody reads worker records, so the
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


def test_file_journal_alone_is_a_consumer(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    engine = CampaignEngine(jobs=2, journal=journal)
    engine.run_cells(_specs())
    engine.close()
    journal.close()
    shipped = [
        r for r in read_records(journal.path)
        if r["event"] == "telemetry" and "worker" in r
    ]
    assert len(shipped) == engine.obs.absorbed > 0
