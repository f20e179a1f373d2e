"""Attribution report: categories, intervals, renderers, HTML."""

import json

import pytest

from repro.obs.html import render_html
from repro.obs.report import (
    build_report,
    category_of,
    load_report_records,
    render_text,
)


def _records():
    label = "seesaw/vacf/d16/n8/s1/r0"
    return [
        {"ph": "X", "name": "phase.md", "ts": 0.0, "dur": 1.0,
         "pid": 1001, "tid": 1, "args": {"energy_j": 10.0},
         "worker": 0, "label": label},
        {"ph": "X", "name": "phase.md", "ts": 0.0, "dur": 1.2,
         "pid": 1001, "tid": 2, "args": {"energy_j": 12.0},
         "worker": 0, "label": label},
        {"ph": "X", "name": "phase.analysis", "ts": 0.0, "dur": 0.8,
         "pid": 1001, "tid": 3, "args": {"energy_j": 4.0},
         "worker": 0, "label": label},
        {"ph": "X", "name": "insitu.sync", "ts": 1.0, "dur": 0.3,
         "pid": 1001, "tid": 1, "args": {"energy_j": 0.9},
         "worker": 0, "label": label},
        # a second decision interval
        {"ph": "i", "name": "core.seesaw.decision", "ts": 1.5,
         "pid": 1001, "tid": 0, "worker": 0},
        {"ph": "X", "name": "phase.md", "ts": 1.5, "dur": 0.5,
         "pid": 1001, "tid": 1, "args": {"energy_j": 5.0},
         "worker": 0, "label": label},
        # sync-wait measured from a B/E pair
        {"ph": "B", "name": "insitu.sync", "ts": 2.0, "pid": 1001,
         "tid": 2, "worker": 0, "label": label},
        {"ph": "E", "name": "insitu.sync", "ts": 2.4, "pid": 1001,
         "tid": 2, "worker": 0, "label": label},
        {"ph": "i", "name": "power.rapl.apply", "ts": 1.6, "pid": 1001,
         "tid": 0, "args": {"cap_w": 90.0}, "worker": 0},
    ]


def test_category_mapping():
    assert category_of("phase.force") == "md"
    assert category_of("phase.md") == "md"
    assert category_of("phase.ana_cpu") == "analysis"
    assert category_of("phase.analysis") == "analysis"
    assert category_of("insitu.sync") == "sync_wait"
    assert category_of("power.rapl.apply") == "cap_actuation"
    assert category_of("campaign.cell") is None


def test_build_report_attribution():
    report = build_report(_records())
    assert report.total_energy_j == pytest.approx(31.9)
    assert report.by_category["md"]["energy_j"] == pytest.approx(27.0)
    assert report.by_category["analysis"]["energy_j"] == pytest.approx(4.0)
    assert report.by_category["sync_wait"]["energy_j"] == pytest.approx(0.9)
    # B/E sync pair contributes wall time
    assert report.by_category["sync_wait"]["wall_s"] == pytest.approx(0.7)
    assert report.by_rank[0]["energy_j"] == pytest.approx(15.9)
    assert report.decisions == 1 and report.actuations == 1


def test_decision_intervals_split_the_run():
    report = build_report(_records())
    assert len(report.intervals) == 2
    first, second = report.intervals
    # pre-decision work lands in interval 0, post-decision in 1
    assert first["energy_j"] == pytest.approx(26.9)
    assert second["energy_j"] == pytest.approx(5.0)
    assert first["t1"] == pytest.approx(1.5)
    assert second["t0"] == pytest.approx(1.5)
    assert second["by_category"]["md"]["energy_j"] == pytest.approx(5.0)


def test_no_decisions_is_one_interval():
    recs = [r for r in _records() if r.get("ph") != "i"]
    report = build_report(recs)
    assert len(report.intervals) == 1


def test_json_roundtrip_and_text_render():
    report = build_report(_records(), campaign={"experiments": ["c1"], "cells": 2})
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["total_energy_j"] == pytest.approx(31.9)
    assert doc["by_category"]["md"]["count"] == 3
    text = render_text(report)
    assert "energy by category" in text
    assert "decision intervals" in text
    assert "c1" in text


def test_empty_journal_reports_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text(
        '{"ph": "i", "name": "campaign.summary", "ts": 0.0, "pid": 0,'
        ' "tid": 0, "args": {"experiments": ["c2"], "cells": 0}}\n'
    )
    campaign, records = load_report_records(path)
    assert campaign["experiments"] == ["c2"] and len(records) == 1
    report = build_report(records, campaign=campaign)
    assert report.total_energy_j == 0.0
    assert "c2" in render_text(report)
    assert "<svg" not in render_html(report) or True  # renders, no crash


def test_html_rasterizes_long_runs_to_a_bounded_page():
    """A span-per-rect page for a long campaign would be hundreds of
    MB; above RASTERIZE_ABOVE spans per run the timeline collapses to
    pixel-column runs and the caption says so."""
    label = "seesaw/vacf/d16/n8/s1/r0"
    recs = [
        {"ph": "X", "name": "phase.md" if i % 2 == 0 else "insitu.sync",
         "ts": i * 0.01, "dur": 0.01, "pid": 1001, "tid": 1 + (i % 4),
         "args": {"energy_j": 1.0}, "worker": 0, "label": label}
        for i in range(6000)
    ]
    page = render_html(build_report(recs))
    assert "rasterized (6000 spans)" in page
    assert "mostly md" in page
    assert len(page) < 300_000  # bounded regardless of span count
    # short runs keep the one-rect-per-span detail with tooltips
    detail = render_html(build_report(_records()))
    assert "rasterized" not in detail
    assert "phase.md · " in detail


def test_html_is_self_contained():
    report = build_report(
        _records(), campaign={"experiments": ["fig8"]}
    )
    page = render_html(report)
    assert page.startswith("<!doctype html>")
    assert "<svg" in page  # inline figures
    # zero external fetches: no links, scripts, or remote assets
    for needle in ("http://", "https://", "<script", "<link", "src="):
        assert needle not in page
    assert "31.900 J" in page
    assert "fig8" in page
    # timelines drawn per run with decision rules
    assert "stroke-dasharray" in page
    assert page.count("<svg") >= 2  # phase bars + at least one timeline
