"""The chaos matrix against goldens committed from the lazy replica.

The matrix computes one in-situ trajectory and replays it in every
other cell, so any drift between a computed and a replayed run shows
in its table or its fault-event log. Both were generated before the
trajectory memo existed; CI's chaos-smoke job diffs the same command's
output against them.
"""

from pathlib import Path

from repro.experiments import cli

GOLDEN = Path(__file__).parent / "golden"

ARGS = [
    "chaos",
    "--seed", "7",
    "--controllers", "seesaw,static",
    "--kinds", "slowdown,cap_drop,meas_drop",
    "--fail-threshold", "0.25",
]  # fmt: skip


def test_chaos_seed7_table_and_events_match_goldens(tmp_path, capsys):
    events = tmp_path / "chaos-events.jsonl"
    assert cli.main([*ARGS, "--events", str(events)]) == 0
    table = "".join(
        line
        for line in capsys.readouterr().out.splitlines(keepends=True)
        if not line.startswith("[fault events -> ")
    )
    assert table == (GOLDEN / "chaos-seed7-table.txt").read_text()
    assert events.read_bytes() == (GOLDEN / "chaos-seed7-events.jsonl").read_bytes()
