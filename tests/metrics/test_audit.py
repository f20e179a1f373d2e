"""Audit journal tests: recording from the real controllers, JSONL
round-tripping, exact replay, diff, and the timeline render."""

import json

import pytest

from repro.experiments.runner import build_controller
from repro.metrics.audit import (
    AuditJournal,
    AuditRecord,
    NULL_AUDIT,
    decision_views,
    diff_decisions,
    get_audit,
    load_journal,
    render_timeline,
    replay,
    use_audit,
)
from repro.workloads import JobConfig, run_job


def _journaled_run(approach: str, path=None, seed: int = 3) -> AuditJournal:
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=8, seed=seed)
    with use_audit(AuditJournal(path)) as journal:
        run_job(cfg, build_controller(approach, cfg))
    return journal


def test_ambient_default_is_null():
    assert get_audit() is NULL_AUDIT
    assert not NULL_AUDIT.enabled
    NULL_AUDIT.record_init("x", 1.0, 2.0)  # harmless no-op
    assert NULL_AUDIT.records == []


def test_use_audit_installs_and_restores():
    journal = AuditJournal()
    with use_audit(journal):
        assert get_audit() is journal
    assert get_audit() is NULL_AUDIT


def test_run_records_init_obs_decision():
    journal = _journaled_run("seesaw")
    kinds = {}
    for rec in journal.records:
        kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
    assert kinds["init"] == 1
    assert kinds["obs"] == kinds["decision"] == 8
    decision = next(r for r in journal.records if r.kind == "decision")
    assert decision.controller == "seesaw"
    assert decision.before_sim_w is not None
    assert decision.after_sim_w is not None
    assert decision.predicted_slack_s is not None
    assert "budget_w" in decision.inputs


def test_jsonl_stream_round_trips(tmp_path):
    path = tmp_path / "deep" / "nested" / "audit.jsonl"
    journal = _journaled_run("seesaw", path=path)
    journal.close()
    loaded = load_journal(path)
    assert len(loaded) == len(journal.records)
    for disk, mem in zip(loaded, journal.records):
        assert disk.to_json() == mem.to_json()


def test_record_json_round_trip_preserves_floats():
    rec = AuditRecord(
        kind="decision",
        step=3,
        controller="seesaw",
        t=0.1234567890123456,
        before_sim_w=110.0,
        before_ana_w=110.0,
        after_sim_w=123.45678901234567,
        after_ana_w=96.54321098765433,
        inputs={"budget_w": 220.0},
        predicted_slack_s=1e-9,
    )
    back = AuditRecord.from_json(json.loads(json.dumps(rec.to_json())))
    assert back.after_sim_w == rec.after_sim_w
    assert back.predicted_slack_s == rec.predicted_slack_s


@pytest.mark.parametrize("approach", ["seesaw", "power-aware", "time-aware"])
def test_replay_reproduces_cap_schedule_exactly(approach):
    journal = _journaled_run(approach)
    result = replay(journal.records)
    assert result.n_decisions > 0
    assert result.clean, result.mismatches
    assert result.n_replayed == result.n_decisions
    # every recorded decision lands in the schedule
    assert len(result.schedule) == 1 + result.n_decisions  # + init
    assert "reproduced exactly" in result.render()


def test_replay_detects_tampered_caps():
    journal = _journaled_run("seesaw")
    tampered = [AuditRecord.from_json(r.to_json()) for r in journal.records]
    victim = next(r for r in tampered if r.kind == "decision")
    victim.after_sim_w += 1.0
    result = replay(tampered)
    assert not result.clean
    assert any(f == "after_sim_w" for _, f, _, _ in result.mismatches)
    assert "MISMATCHES" in result.render()


def test_replay_rejects_unknown_controller():
    rec = AuditRecord(
        kind="decision", step=1, controller="mystery",
        after_sim_w=1.0, after_ana_w=1.0,
    )
    result = replay([rec])
    assert not result.clean
    assert result.n_replayed == 0
    assert result.mismatches == [(1, "controller", "mystery", None)]
    assert "reproduced exactly" not in result.render()


def test_replay_rejects_incomplete_inputs():
    journal = _journaled_run("seesaw")
    truncated = [AuditRecord.from_json(r.to_json()) for r in journal.records]
    victim = next(r for r in truncated if r.kind == "decision")
    del victim.inputs["budget_w"]
    result = replay(truncated)
    assert not result.clean
    assert (victim.step, "inputs['budget_w']", None, None) in result.mismatches
    assert result.n_replayed == result.n_decisions - 1


def test_diff_same_run_is_empty():
    a = _journaled_run("seesaw", seed=5)
    b = _journaled_run("seesaw", seed=5)
    assert diff_decisions(a.records, b.records) == []


def test_diff_flags_divergent_caps_and_counts():
    a = _journaled_run("seesaw", seed=5)
    b = AuditJournal()
    b.records = [AuditRecord.from_json(r.to_json()) for r in a.records]
    victim = [r for r in b.records if r.kind == "decision"][2]
    victim.after_ana_w -= 0.5
    divergences = diff_decisions(a.records, b.records)
    assert divergences
    assert any("after_ana_w" in d for d in divergences)
    truncated = [r for r in b.records if r.kind != "decision"] + [
        r for r in b.records if r.kind == "decision"
    ][:-1]
    assert any(
        "decision count differs" in d
        for d in diff_decisions(b.records, truncated)
    )


def test_diff_flags_controller_mismatch():
    a = _journaled_run("seesaw", seed=5)
    b = _journaled_run("time-aware", seed=5)
    assert any("controller" in d for d in diff_decisions(a.records, b.records))


def test_decision_views_attach_realized_slack():
    journal = _journaled_run("seesaw")
    views = decision_views(journal.records)
    assert len(views) == 8
    # every decision except possibly the last is followed by an obs
    realized = [v["realized_slack_s"] for v in views[:-1]]
    assert all(r is not None and r >= 0.0 for r in realized)


def test_render_timeline_shows_power_caps_and_slack():
    journal = _journaled_run("seesaw")
    text = render_timeline(journal.records)
    assert "measured partition power" in text
    assert "installed cap split" in text
    assert "pred slack s" in text
    assert "real slack s" in text


def test_render_timeline_empty_journal():
    assert "no observations" in render_timeline([])
