"""Campaign watch: trace folding, rendering, TTY/non-TTY modes."""

import io
import json

from repro.obs.watch import WatchModel, WatchState, fold, render_state, watch_journal


def _cell(status, tid=0):
    return {"ph": "X", "name": "campaign.cell", "cat": "campaign",
            "ts": 0.0, "dur": 0.1, "pid": 0, "tid": tid,
            "args": {"label": "seesaw/vacf", "status": status}}


def _instant(name, **args):
    return {"ph": "i", "name": name, "cat": "campaign", "ts": 0.0,
            "pid": 0, "tid": 0, "args": args}


def _journal_rows():
    """A pooled campaign's JSONL trace, as ``run --trace`` writes it."""
    return [
        _instant("campaign.batch", cells=4),
        _cell("hit"),
        _cell("done", tid=1),
        _cell("error", tid=2),
        _cell("retried"),
        _instant("campaign.sched", final=False, n_workers=2, dispatches=3,
                 queue_depth=1, eta_s=4.5, ship_records=120,
                 ship_dropped=0,
                 workers=[
                     {"wid": 0, "pid": 11, "cells": 2, "busy_s": 1.0,
                      "respawns": 0, "utilization": 0.8},
                     {"wid": 1, "pid": 12, "cells": 1, "busy_s": 0.4,
                      "respawns": 1, "utilization": 0.3},
                 ]),
        {"ph": "X", "name": "phase.md", "ts": 0.0,
         "dur": 2.0, "pid": 1000, "tid": 1, "args": {"energy_j": 100.0},
         "worker": 0, "label": "seesaw/vacf/d16/n8/s1/r0"},
        {"ph": "X", "name": "phase.md", "ts": 2.0,
         "dur": 2.0, "pid": 1000, "tid": 1, "args": {"energy_j": 150.0},
         "worker": 0, "label": "seesaw/vacf/d16/n8/s1/r0"},
        {"ph": "i", "name": "core.seesaw.decision",
         "ts": 2.0, "pid": 1000, "tid": 0, "worker": 0},
        {"ph": "i", "name": "power.rapl.apply",
         "ts": 2.1, "pid": 1000, "tid": 0, "worker": 0},
        _instant("campaign.summary", cells=4, hits=1,
                 experiments=["fig8"], jobs=2),
    ]


def _fold_all():
    state = WatchState()
    for row in _journal_rows():
        fold(state, row)
    return state


def test_fold_accumulates_campaign_state():
    state = _fold_all()
    assert state.campaign["experiments"] == ["fig8"]
    assert state.scheduled == 4
    assert state.counts["cells"] == 3  # hit + done + retried
    assert state.counts["errors"] == 1 and state.counts["retries"] == 1
    assert state.finished
    assert state.decisions == 1 and state.actuations == 1
    # power series: approach from the mux-stamped cell label
    assert list(state.power) == ["seesaw"]
    assert state.power["seesaw"][0] == 50.0  # 100 J / 2 s
    assert state.energy_j["seesaw"] == 250.0


def test_render_is_deterministic_and_complete():
    state = _fold_all()
    frame = render_state(state)
    assert frame == render_state(state)  # no wall-clock dependence
    assert "fig8" in frame
    assert "3/4" in frame and "FINISHED" in frame
    assert "queue 1" in frame and "dispatches 3" in frame
    assert "eta 4s" in frame
    assert "120 records merged" in frame
    assert "seesaw" in frame and "250.0 J" in frame
    assert "1 decisions" in frame and "1 cap actuations" in frame
    # one row per worker with utilization
    assert "  80%" in frame and "  30%" in frame


def test_model_tails_incrementally(tmp_path):
    path = tmp_path / "run.jsonl"
    rows = _journal_rows()
    with path.open("w") as fh:
        for row in rows[:4]:
            fh.write(json.dumps(row) + "\n")
    model = WatchModel(path)
    assert model.refresh() == 4
    assert model.state.counts["cells"] == 2
    with path.open("a") as fh:
        for row in rows[4:]:
            fh.write(json.dumps(row) + "\n")
        fh.write('{"ph": "X", "name": "campaign.cell", "args":')  # torn tail
    assert model.refresh() == len(rows) - 4
    assert model.state.finished
    assert model.refresh() == 0  # torn tail stays unread
    # a new run truncates the trace: the watch starts over with it
    path.write_text(json.dumps(rows[0]) + "\n")
    assert model.refresh() == 1
    assert model.state.scheduled == 4 and not model.state.finished


def test_watch_journal_non_tty_snapshots(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in _journal_rows())
    )
    out = io.StringIO()
    assert watch_journal(path, stream=out, tty=False) == 0
    text = out.getvalue()
    assert text.startswith("--- watch frame 0 ---\n")
    assert "FINISHED" in text
    assert "\x1b[" not in text  # plain text, no ANSI control codes
    # deterministic: a second watch over the same journal is identical
    out2 = io.StringIO()
    watch_journal(path, stream=out2, tty=False)
    assert out2.getvalue() == text


def test_watch_journal_tty_redraws_in_place(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in _journal_rows())
    )
    out = io.StringIO()
    assert watch_journal(path, stream=out, tty=True) == 0
    assert out.getvalue().startswith("\x1b[2J\x1b[H")


def test_watch_journal_once_on_missing_journal(tmp_path):
    out = io.StringIO()
    assert watch_journal(tmp_path / "nope.jsonl", once=True, stream=out, tty=False) == 0
    assert "watch frame 0" in out.getvalue()


def test_watch_journal_iterations_bound(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps(_instant("campaign.batch", cells=2)) + "\n")
    out = io.StringIO()
    assert (
        watch_journal(path, interval=0.01, iterations=3, stream=out, tty=False)
        == 0
    )
    assert out.getvalue().count("--- watch frame") == 3
