"""One record per fact: a metrics report does not depend on ``--jobs``.

``run --metrics`` installs ``Tracer(MetricsSink(registry))``, and the
sink is the registry's only writer. Pool workers ship their trace
records back to the parent, which folds them into the same registry, so
a report holds the same counters and histograms, with the same counts,
whether the cells ran serially or on a pool. Only the campaign's own
scheduling records (``campaign.*``, ``event.campaign.*``) differ: a
serial run schedules nothing. A name that sits in two report sections
is one fact counted twice.
"""

import pytest

from repro.campaign import CampaignEngine, CellSpec
from repro.metrics import MetricRegistry, MetricsSink
from repro.telemetry import Tracer, use_tracer
from repro.workloads import JobConfig

SECTIONS = ("counters", "histograms")
CAMPAIGN = ("campaign.", "event.campaign.")


def _cells():
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=40, seed=3)
    return [
        CellSpec(approach, cfg, run)
        for approach in ("seesaw", "time-aware", "power-aware", "static")
        for run in (0, 1)
    ]


def _report(jobs: int) -> dict:
    registry = MetricRegistry()
    engine = CampaignEngine(jobs=jobs)
    try:
        with use_tracer(Tracer(MetricsSink(registry))):
            engine.run_cells(_cells())
    finally:
        engine.close()
    return registry.report().to_json()


def _facts(report: dict, section: str) -> dict:
    return {
        name: value
        for name, value in report[section].items()
        if not name.startswith(CAMPAIGN)
    }


@pytest.fixture(scope="module")
def reports():
    return _report(1), _report(2)


def test_shared_counts_agree_serial_and_pooled(reports):
    serial, pooled = (_facts(r, "counters") for r in reports)
    assert serial == pooled
    # the folded decision counts are there to compare
    assert any(n.endswith(".decision") for n in serial)
    assert serial["event.power.rapl.request"] > 0


def test_histograms_agree_serial_and_pooled(reports):
    serial, pooled = (_facts(r, "histograms") for r in reports)
    assert serial.keys() == pooled.keys()
    for name in serial:
        assert serial[name]["count"] == pooled[name]["count"], name
    # the facts that once only a serial registry held are here, folded
    # from the records that carry them
    for name in (
        "span.insitu.sync.slack_s",
        "event.power.rapl.request.cap_change_w",
        "event.power.rapl.apply.mean_cap_w",
    ):
        assert serial[name]["count"] > 0, name


def test_no_name_in_two_sections(reports):
    for report in reports:
        assert set(report) == set(SECTIONS)
        seen: dict[str, str] = {}
        for section in SECTIONS:
            for name in report[section]:
                assert name not in seen, (
                    f"{name!r} is in both {seen[name]} and {section}"
                )
                seen[name] = section
