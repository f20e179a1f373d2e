"""Trace post-processing: validation and the summary report.

:func:`validate_spans` checks structural well-formedness — every end
matches the innermost open begin of its ``(pid, tid)`` lane, nothing is
left open, and children lie within their parent's interval. The
property tests drive it with randomized span programs; the CLI runs it
before writing a trace so a malformed instrumentation change fails
loudly rather than producing a file Perfetto rejects.

:func:`summarize` folds a record stream into per-phase time/power
breakdowns (from the ``"X"`` phase spans' ``energy_j`` and ``limited``
args), per-name span totals, and instant counts; ``render()`` prints
the tables the ``trace`` subcommand shows after a run. A span that
aggregates a partition's ranks (the proxy's, see :func:`span_seconds`)
counts its rank-seconds, so times and mean powers stay per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SpanStat",
    "TelemetrySummary",
    "span_seconds",
    "summarize",
    "validate_spans",
]


def span_seconds(rec: dict) -> float:
    """The seconds an ``"X"`` record accounts for: its ``rank_s`` arg
    where it has one (a per-partition span carries its ranks' seconds,
    summed), else its ``dur``."""
    args = rec.get("args") or {}
    return float(args.get("rank_s", rec.get("dur", 0.0)) or 0.0)


def validate_spans(records: list[dict]) -> list[str]:
    """Structural violations in a record stream (empty list = clean).

    Checks, independently per ``(pid, tid)`` lane:

    * "E" records match the innermost open "B" by name;
    * timestamps never run backwards within a lane;
    * every opened span is closed (balanced enter/exit);
    * child spans end no later than their parent ends.

    The parent-interval property follows from the first three for
    stack-disciplined spans, but malformed ``ts`` overrides can break
    it independently, so it is verified directly.
    """
    problems: list[str] = []
    # per-lane stack of [begin_record, max_end_of_closed_children]
    stacks: dict[tuple, list[list]] = {}
    last_ts: dict[tuple, float] = {}
    for rec in records:
        ph = rec.get("ph")
        if ph not in ("B", "E", "X"):
            continue
        lane = (rec.get("pid", 0), rec.get("tid", 0))
        ts = rec["ts"]
        if ts < last_ts.get(lane, float("-inf")):
            problems.append(
                f"lane {lane}: ts went backwards at {rec['name']!r} "
                f"({ts} < {last_ts[lane]})"
            )
        last_ts[lane] = ts
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            stack.append([rec, float("-inf")])
        elif ph == "E":
            if not stack:
                problems.append(
                    f"lane {lane}: end of {rec['name']!r} with no open span"
                )
                continue
            top, child_end = stack.pop()
            if top["name"] != rec["name"]:
                problems.append(
                    f"lane {lane}: end of {rec['name']!r} closes "
                    f"{top['name']!r}"
                )
            if ts < top["ts"]:
                problems.append(
                    f"lane {lane}: span {top['name']!r} ends before it begins"
                )
            if child_end > ts + 1e-9:
                problems.append(
                    f"lane {lane}: a child outlives parent {top['name']!r}"
                )
            if stack:  # this span is itself a closed child of its parent
                stack[-1][1] = max(stack[-1][1], ts)
        else:  # X: a pre-closed span; note its end for the open parent
            end = ts + rec.get("dur", 0.0)
            if stack:
                stack[-1][1] = max(stack[-1][1], end)
    for lane, stack in stacks.items():
        for rec, _ in stack:
            problems.append(f"lane {lane}: span {rec['name']!r} never ended")
    return problems


@dataclass
class SpanStat:
    """Aggregate over all spans sharing one (cat, name)."""

    count: int = 0
    #: seconds, per node: rank-seconds for per-partition spans
    total_s: float = 0.0
    energy_j: float = 0.0
    #: spans whose ``limited`` arg is set: the cap sat below the phase's
    #: turbo demand (the DES phase spans carry it)
    limited: int = 0

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.total_s if self.total_s > 0 else 0.0


@dataclass
class TelemetrySummary:
    """What :func:`summarize` extracts from a trace."""

    #: (cat, name) -> aggregate over closed spans (B/E pairs and X)
    spans: dict = field(default_factory=dict)
    #: phase-kind name -> aggregate (the per-phase time/power table)
    phases: dict = field(default_factory=dict)
    #: instant-event name -> occurrence count
    instants: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = ["== telemetry summary =="]
        if self.phases:
            lines.append("")
            lines.append("per-phase time/power:")
            lines.append(
                f"  {'phase':<12} {'count':>6} {'time s':>10}"
                f" {'energy J':>10} {'mean W':>8} {'limited':>8}"
            )
            for name in sorted(self.phases):
                s = self.phases[name]
                lines.append(
                    f"  {name:<12} {s.count:>6} {s.total_s:>10.4f}"
                    f" {s.energy_j:>10.2f} {s.mean_power_w:>8.1f}"
                    f" {s.limited:>8}"
                )
        if self.spans:
            lines.append("")
            lines.append("span totals:")
            for (cat, name) in sorted(self.spans):
                s = self.spans[(cat, name)]
                lines.append(
                    f"  {cat + '/' + name:<32} x{s.count:<5}"
                    f" {s.total_s:.4f} s"
                )
        if self.instants:
            lines.append("")
            lines.append("events:")
            for name in sorted(self.instants):
                lines.append(f"  {name:<32} x{self.instants[name]}")
        return "\n".join(lines)


def summarize(records: list[dict]) -> TelemetrySummary:
    """Fold a record stream into a :class:`TelemetrySummary`."""
    out = TelemetrySummary()
    open_spans: dict[tuple, list[dict]] = {}

    def add_span(cat: str, name: str, dur: float, energy: float) -> None:
        stat = out.spans.setdefault((cat, name), SpanStat())
        stat.count += 1
        stat.total_s += dur
        stat.energy_j += energy

    for rec in records:
        ph = rec.get("ph")
        name = rec.get("name", "")
        cat = rec.get("cat", "")
        args = rec.get("args") or {}
        if ph == "B":
            lane = (rec.get("pid", 0), rec.get("tid", 0))
            open_spans.setdefault(lane, []).append(rec)
        elif ph == "E":
            lane = (rec.get("pid", 0), rec.get("tid", 0))
            stack = open_spans.get(lane)
            if stack:
                top = stack.pop()
                add_span(
                    top.get("cat", ""),
                    top["name"],
                    rec["ts"] - top["ts"],
                    0.0,
                )
        elif ph == "X":
            dur = span_seconds(rec)
            energy = float(args.get("energy_j", 0.0))
            add_span(cat, name, dur, energy)
            if name.startswith("phase."):
                stat = out.phases.setdefault(name[len("phase."):], SpanStat())
                stat.count += 1
                stat.total_s += dur
                stat.energy_j += energy
                stat.limited += bool(args.get("limited"))
        elif ph == "i":
            out.instants[name] = out.instants.get(name, 0) + 1
    return out
