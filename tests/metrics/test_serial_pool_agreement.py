"""One record per fact: a metrics report does not depend on ``--jobs``.

``run --metrics`` installs ``Tracer(MetricsSink(registry))`` beside
``use_metrics(registry)``. Pool workers ship their trace records back
to the parent, which folds them into the same registry, so every count
that is folded from records must read the same whether the cells ran
serially or on a pool. A name that sits in two report sections is one
fact counted twice.
"""

import pytest

from repro.campaign import CampaignEngine, CellSpec
from repro.metrics import MetricRegistry, MetricsSink, use_metrics
from repro.telemetry import Tracer, use_tracer
from repro.workloads import JobConfig

SECTIONS = ("counters", "gauges", "histograms", "timeseries")


def _cells():
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=40, seed=3)
    return [
        CellSpec(approach, cfg, run)
        for approach in ("seesaw", "time-aware", "power-aware")
        for run in (0, 1)
    ]


def _report(jobs: int) -> dict:
    registry = MetricRegistry()
    engine = CampaignEngine(jobs=jobs)
    try:
        with use_metrics(registry), use_tracer(Tracer(MetricsSink(registry))):
            engine.run_cells(_cells())
    finally:
        engine.close()
    return registry.report().to_json()


@pytest.fixture(scope="module")
def reports():
    return _report(1), _report(2)


def test_shared_counts_agree_serial_and_pooled(reports):
    serial, pooled = reports
    for section in ("counters", "gauges"):
        shared = serial[section].keys() & pooled[section].keys()
        for name in shared:
            a, b = serial[section][name], pooled[section][name]
            if section == "gauges":
                a, b = a["value"], b["value"]
            assert a == b, f"{section}/{name}: serial {a} != pooled {b}"
    # the folded decision counts are there to compare
    assert any(n.endswith(".decision") for n in serial["counters"])
    assert serial["counters"]["event.power.rapl.request"] > 0


def test_no_name_in_two_sections(reports):
    for report in reports:
        seen: dict[str, str] = {}
        for section in SECTIONS:
            for name in report[section]:
                assert name not in seen, (
                    f"{name!r} is in both {seen[name]} and {section}"
                )
                seen[name] = section
