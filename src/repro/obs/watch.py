"""``campaign watch``: a live, in-terminal campaign dashboard.

The watch is a pure journal tail: it polls the campaign journal with
:func:`repro.campaign.journal.tail_records` (locked, torn-tail-safe,
incremental) and folds every record into a :class:`WatchState` — no
side channel, no IPC with the running campaign, so it works from a
second terminal, over NFS, or against a dead campaign's journal
equally well. What it shows:

* cells completed / scheduled, cache hit rate, errors and retries;
* per-worker utilization, executed cells, steals and respawns plus
  queue depth and cost-model ETA (from the engine's ``sched`` rows);
* a rolling power sparkline and energy total per controller approach
  (from shipped ``phase.*`` telemetry rows), and controller decision /
  cap-actuation counts;
* shipping health: records merged, records dropped to backpressure.

On a TTY the frame redraws in place (ANSI clear) every ``interval``
seconds; when stdout is not a TTY it degrades to sequentially numbered
plain-text snapshots whose content depends only on the journal — the
CI-safe mode. The loop ends when the journal's ``summary`` row lands
(campaign finished), after ``--iterations``, or immediately with
``--once``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.journal import tail_records
from repro.telemetry.summary import span_seconds
from repro.util.term import sparkline

__all__ = ["WatchModel", "WatchState", "render_state", "watch_journal"]

#: rolling samples kept per controller power series
POWER_WINDOW = 180


@dataclass
class WatchState:
    """Everything the dashboard knows, folded from journal records."""

    campaign: dict | None = None
    legs: int = 1
    scheduled: int = 0
    counts: dict = field(
        default_factory=lambda: {
            "cells": 0,
            "hits": 0,
            "misses": 0,
            "dups": 0,
            "errors": 0,
            "timeouts": 0,
            "retries": 0,
            "failed": 0,
        }
    )
    #: most recent ``sched`` row (queue depth, eta, per-worker stats)
    sched: dict | None = None
    #: approach -> rolling deque of mean phase power samples (W)
    power: dict = field(default_factory=dict)
    #: approach -> total shipped energy (J)
    energy_j: dict = field(default_factory=dict)
    decisions: int = 0
    actuations: int = 0
    telemetry_rows: int = 0
    finished: bool = False

    @property
    def hit_rate(self) -> float:
        done = self.counts["cells"]
        return self.counts["hits"] / done if done else 0.0


def _approach(label: str) -> str:
    """Controller approach from a cell label (``seesaw/rdf/...``)."""
    return label.split("/", 1)[0] if label else "?"


def fold(state: WatchState, record: dict) -> None:
    """Fold one journal record into the watch state."""
    event = record.get("event")
    if event == "campaign":
        state.campaign = record
    elif event == "resume":
        state.legs += 1
    elif event == "scheduled":
        state.scheduled += len(record.get("keys", ()))
    elif event == "summary":
        state.finished = True
    elif event == "sched":
        state.sched = record
    elif event == "cell":
        status = record.get("status")
        counts = state.counts
        if status in ("hit", "dup", "done", "retried"):
            counts["cells"] += 1
        if status == "hit":
            counts["hits"] += 1
        elif status == "dup":
            counts["dups"] += 1
        elif status == "done":
            counts["misses"] += 1
        elif status == "retried":
            counts["misses"] += 1
            counts["retries"] += 1
        elif status in ("error", "timeout", "failed"):
            counts[status + ("s" if status != "failed" else "")] += 1
    elif event == "telemetry":
        state.telemetry_rows += 1
        ph = record.get("ph")
        name = record.get("name", "")
        if ph == "X" and name.startswith("phase."):
            args = record.get("args") or {}
            dur = span_seconds(record)
            energy = float(args.get("energy_j", 0.0) or 0.0)
            approach = _approach(_label_from(record))
            state.energy_j[approach] = (
                state.energy_j.get(approach, 0.0) + energy
            )
            if dur > 0.0:
                series = state.power.get(approach)
                if series is None:
                    series = state.power[approach] = deque(
                        maxlen=POWER_WINDOW
                    )
                series.append(energy / dur)
        elif ph == "i":
            if name.endswith(".decision"):
                state.decisions += 1
            elif name == "power.rapl.apply":
                state.actuations += 1


def _label_from(record: dict) -> str:
    """Cell label stamped by the mux (top level), best effort."""
    label = record.get("label")
    if isinstance(label, str):
        return label
    cell = record.get("cell")
    return str(cell)[:8] if cell else ""


# ---------------------------------------------------------------------
# rendering


def render_state(state: WatchState, width: int = 72) -> str:
    """One dashboard frame; pure function of the folded state."""
    lines: list[str] = []
    meta = state.campaign or {}
    cid = meta.get("id", "?")
    experiments = ",".join(meta.get("experiments", [])) or "?"
    lines.append(f"== campaign watch · {cid} · {experiments} ==")
    c = state.counts
    total = max(state.scheduled, c["cells"]) or c["cells"]
    done = c["cells"]
    bar_w = 32
    filled = int(round(bar_w * (done / total))) if total else 0
    bar = "#" * filled + "." * (bar_w - filled)
    lines.append(
        f"cells   [{bar}] {done}/{total or '?'}"
        f" · leg {state.legs}"
        + (" · FINISHED" if state.finished else "")
    )
    lines.append(
        f"cache   {c['hits']} hits · {c['dups']} dups · {c['misses']} run"
        f" · hit rate {state.hit_rate * 100:.0f}%"
    )
    if c["errors"] or c["timeouts"] or c["retries"] or c["failed"]:
        lines.append(
            f"faults  {c['errors']} errors · {c['timeouts']} timeouts"
            f" · {c['retries']} retries · {c['failed']} failed"
        )
    sched = state.sched
    if sched is not None:
        eta = sched.get("eta_s")
        eta_txt = f"{eta:.0f}s" if isinstance(eta, (int, float)) else "?"
        lines.append(
            f"sched   queue {sched.get('queue_depth', 0)}"
            f" · steals {sched.get('steals', 0)}"
            f" ({sched.get('stolen_cells', 0)} cells)"
            f" · dispatches {sched.get('dispatches', 0)}"
            f" · eta {eta_txt}"
        )
        workers = sched.get("workers") or []
        if workers:
            lines.append("")
            lines.append(
                f"  {'worker':>6} {'cells':>6} {'stolen':>7}"
                f" {'respawn':>8} {'util':>6}"
            )
            for w in workers:
                util = float(w.get("utilization", 0.0))
                ubar = "#" * int(round(util * 10))
                lines.append(
                    f"  {w.get('wid', '?'):>6} {w.get('cells', 0):>6}"
                    f" {w.get('stolen_cells', 0):>7}"
                    f" {w.get('respawns', 0):>8}"
                    f" {util * 100:>5.0f}% {ubar}"
                )
        dropped = sched.get("ship_dropped", 0)
        shipped = sched.get("ship_records", 0)
        if shipped or dropped:
            lines.append(
                f"ship    {shipped} records merged · {dropped} dropped"
            )
    if state.power:
        lines.append("")
        lines.append("power (rolling mean W per phase, by controller):")
        for approach in sorted(state.power):
            series = state.power[approach]
            if len(series) >= 2:
                lines.append(
                    "  "
                    + sparkline(
                        list(series), width=width - 24, label=f"{approach:<10}"
                    )
                )
            else:
                lines.append(f"  {approach:<10} (warming up)")
        energy = " · ".join(
            f"{a} {j:.1f} J" for a, j in sorted(state.energy_j.items())
        )
        lines.append(f"energy  {energy}")
    if state.decisions or state.actuations:
        lines.append(
            f"control {state.decisions} decisions"
            f" · {state.actuations} cap actuations"
        )
    return "\n".join(lines)


class WatchModel:
    """Incremental journal tail + fold; one instance per watch session."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.offset = 0
        self.state = WatchState()

    def refresh(self) -> int:
        """Fold newly appended records; returns how many arrived."""
        records, self.offset = tail_records(self.path, self.offset)
        for record in records:
            fold(self.state, record)
        return len(records)

    def render(self, width: int = 72) -> str:
        return render_state(self.state, width=width)


def watch_journal(
    path: Path | str,
    interval: float = 1.0,
    iterations: int | None = None,
    once: bool = False,
    stream=None,
    tty: bool | None = None,
) -> int:
    """The ``campaign watch`` loop; returns a process exit code.

    TTY: clear-and-redraw every ``interval`` seconds. Non-TTY:
    deterministic numbered snapshots (frame content depends only on
    the journal). Ends when the campaign's ``summary`` row is seen,
    after ``iterations`` frames, or after one frame with ``once``.
    A journal that does not exist yet is watched patiently — start
    the watch first, the sweep second, and the first frame appears
    when the journal does.
    """
    import sys

    stream = sys.stdout if stream is None else stream
    is_tty = bool(stream.isatty()) if tty is None else tty
    model = WatchModel(path)
    frame_no = 0
    while True:
        model.refresh()
        frame = model.render()
        if is_tty:
            stream.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            stream.write(f"--- watch frame {frame_no} ---\n{frame}\n")
        stream.flush()
        frame_no += 1
        if once or model.state.finished:
            break
        if iterations is not None and frame_no >= iterations:
            break
        time.sleep(interval)
    return 0
