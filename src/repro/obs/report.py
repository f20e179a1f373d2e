"""The one fold of a trace: SeeSAw-style energy and time attribution.

*Where do the joules and the wall time go under a power cap?* The
``trace`` subcommand, ``campaign report`` and ``campaign watch`` answer
it from trace records alone, each through :meth:`TraceFold.add`, so
they agree by construction. Only leaf spans are attributed:

* ``phase.*`` ``X`` spans (``energy_j`` in args) — MD (force /
  integrate / neighbor / comm, the proxy's ``md``) or analysis;
* sync-wait, the time SeeSAw leaves out of work time — PoLiMER's
  ``insitu.sync_wait`` ``B``/``E`` pair on the DES (``energy_j`` in the
  ``E`` record's args), the proxy's per-partition ``insitu.sync`` ``X``
  span;
* ``power.rapl.apply`` instants — cap actuation.

The DES's enclosing ``insitu.sync`` pair and the ``insitu.exchange``
pair nested in it hold ``phase.*`` compute: they count in the span
totals, never in the attribution. A span's ``rank_s`` arg counts as its
seconds where it has one, so the proxy's per-partition spans (tid 1 the
simulation, tid 2 the analysis) stay in rank-seconds. The fold's memory
is bounded by the number of distinct names, not by trace length.

:func:`build_report` also keeps each run's attributed events and slices
them into **decision intervals**: the controller's decision instants cut
the run's virtual timeline, and each event lands in the interval it
started in — the per-decision-interval joule ledger the SeeSAw
evaluation plots. It renders as text (:func:`render_text`), JSON
(:meth:`AttributionReport.to_json`) or HTML (:mod:`repro.obs.html`).
Phase joule totals are the exact float sums a
:class:`~repro.metrics.registry.MetricsSink` folds into
``span.<phase>.energy_j``; the reconciliation test pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.sinks import read_records
from repro.telemetry.summary import span_seconds
from repro.util.term import bar_chart

__all__ = [
    "AttributionReport",
    "TraceFold",
    "build_report",
    "load_report_records",
    "render_text",
]

#: phase kinds accounted to molecular dynamics proper — the per-rank
#: DES runtime's decomposed kinds plus the proxy workload's aggregate
MD_PHASES = frozenset({"force", "integrate", "neighbor", "comm", "md"})

#: span names accounted to the sync-point wait: the proxy's ``X`` span
#: and PoLiMER's ``B``/``E`` pair
SYNC_WAIT = frozenset({"insitu.sync", "insitu.sync_wait"})

#: the one ``B``/``E`` pair attributed (every other pair encloses
#: attributed compute)
WAIT_PAIR = "insitu.sync_wait"

#: ``by_rank`` keys of the proxy's per-partition lanes (tid - 1)
PARTITION_LANES = {0: "simulation partition", 1: "analysis partition"}


def category_of(name: str) -> str | None:
    """Attribution category for a telemetry record name (or None)."""
    if name.startswith("phase."):
        kind = name[len("phase."):]
        return "md" if kind in MD_PHASES else "analysis"
    if name in SYNC_WAIT:
        return "sync_wait"
    if name == "power.rapl.apply":
        return "cap_actuation"
    return None


def is_decision(name: str) -> bool:
    """Whether an instant is a controller decision."""
    return name.startswith("core.") and name.endswith(".decision")


def _zero() -> dict:
    return {"energy_j": 0.0, "wall_s": 0.0, "count": 0}


def _add(bucket: dict, energy_j: float, wall_s: float) -> None:
    bucket["energy_j"] += energy_j
    bucket["wall_s"] += wall_s
    bucket["count"] += 1


@dataclass
class TraceFold:
    """Attribution totals of a record stream, folded one record at a
    time by :meth:`add`."""

    #: md / analysis / sync_wait / cap_actuation -> {energy_j, wall_s, count}
    by_category: dict = field(default_factory=dict)
    #: attributed record name (``phase.force``, ``insitu.sync``) ->
    #: bucket; a ``phase.*`` bucket also sums the ``limited`` arg
    by_phase: dict = field(default_factory=dict)
    #: simulated rank -> bucket (tid - 1; engine lane excluded); the
    #: proxy's lanes are partitions, 0 the simulation, 1 the analysis
    by_rank: dict = field(default_factory=dict)
    #: ``by_rank`` key -> partition name, for lanes fed by the proxy's
    #: per-partition spans (those with a ``ranks`` arg)
    lane_labels: dict = field(default_factory=dict)
    #: pool worker id (-1 = in-process/serial) -> bucket
    by_worker: dict = field(default_factory=dict)
    #: (cat, name) -> {count, wall_s} over closed spans (B/E pairs and X)
    spans: dict = field(default_factory=dict)
    #: instant name -> occurrences
    instants: dict = field(default_factory=dict)
    records: int = 0
    #: (pid, tid) -> the lane's open ``B`` records, innermost last
    _open: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def decisions(self) -> int:
        return sum(n for name, n in self.instants.items() if is_decision(name))

    @property
    def actuations(self) -> int:
        return self.instants.get("power.rapl.apply", 0)

    @property
    def total_energy_j(self) -> float:
        return sum(b["energy_j"] for b in self.by_phase.values())

    @property
    def total_wall_s(self) -> float:
        return sum(b["wall_s"] for b in self.by_phase.values())

    def add(self, rec: dict) -> tuple[str, float, float] | None:
        """Fold one record; return what it was attributed, as
        ``(category, energy_j, seconds)``, or None."""
        self.records += 1
        ph = rec.get("ph")
        if ph == "X":
            name = rec.get("name", "")
            args = rec.get("args") or {}
            seconds = span_seconds(rec)
            self._span(rec.get("cat", ""), name, seconds)
            return self._account(
                rec,
                name,
                float(args.get("energy_j", 0.0) or 0.0),
                seconds,
                float(rec.get("dur", 0.0) or 0.0),
            )
        if ph == "i":
            name = rec.get("name", "")
            self.instants[name] = self.instants.get(name, 0) + 1
            if name == "power.rapl.apply":
                return self._account(rec, name, 0.0, 0.0, 0.0)
        elif ph == "B":
            lane = (rec.get("pid", 0), rec.get("tid", 0))
            self._open.setdefault(lane, []).append(rec)
        elif ph == "E":
            lane = (rec.get("pid", 0), rec.get("tid", 0))
            stack = self._open.get(lane)
            if stack:
                begin = stack.pop()
                if not stack:
                    del self._open[lane]
                wall = float(rec.get("ts", 0.0) or 0.0) - float(
                    begin.get("ts", 0.0) or 0.0
                )
                self._span(begin.get("cat", ""), begin["name"], wall)
                if begin["name"] == WAIT_PAIR:
                    wall = max(wall, 0.0)
                    energy = (rec.get("args") or {}).get("energy_j", 0.0)
                    return self._account(
                        begin, WAIT_PAIR, float(energy or 0.0), wall, wall
                    )
        return None

    def _span(self, cat: str, name: str, seconds: float) -> None:
        stat = self.spans.get((cat, name))
        if stat is None:
            stat = self.spans[(cat, name)] = {"count": 0, "wall_s": 0.0}
        stat["count"] += 1
        stat["wall_s"] += seconds

    def _account(
        self, rec: dict, name: str, energy_j: float, wall_s: float, dur: float
    ) -> tuple[str, float, float] | None:
        """Add an attributable record to every total; ``dur`` is its
        span on the timeline (the report's events keep it)."""
        cat = category_of(name)
        if cat is None:
            return None
        args = rec.get("args") or {}
        bucket = self.by_phase.get(name)
        if bucket is None:
            bucket = self.by_phase[name] = _zero()
            if name.startswith("phase."):
                bucket["limited"] = 0
        _add(bucket, energy_j, wall_s)
        if "limited" in bucket:
            # the DES's bool counts 1; the proxy's count is in ranks
            bucket["limited"] += int(args.get("limited", 0))
        _add(self.by_category.setdefault(cat, _zero()), energy_j, wall_s)
        tid = int(rec.get("tid", 0) or 0)
        if tid > 0:
            _add(self.by_rank.setdefault(tid - 1, _zero()), energy_j, wall_s)
            if tid - 1 in PARTITION_LANES and "ranks" in args:
                self.lane_labels[tid - 1] = PARTITION_LANES[tid - 1]
        wid = int(rec.get("worker", -1))
        _add(self.by_worker.setdefault(wid, _zero()), energy_j, wall_s)
        return cat, energy_j, wall_s


@dataclass
class AttributionReport(TraceFold):
    """A :class:`TraceFold` that also keeps each run's attributed events
    and decision instants, sliced into decision intervals."""

    #: the ``campaign.summary`` instant's args (experiments, counts)
    campaign: dict | None = None
    #: one entry per (run, decision interval): the SeeSAw ledger rows
    intervals: list = field(default_factory=list)
    #: per-run lanes for the HTML timelines: pid -> run descriptor
    runs: dict = field(default_factory=dict)
    #: pid -> attributed event stream / sorted decision instants (feeds
    #: the HTML timelines; deliberately absent from :meth:`to_json`)
    events_by_pid: dict = field(default_factory=dict, repr=False)
    cuts_by_pid: dict = field(default_factory=dict, repr=False)

    def add(self, rec: dict) -> tuple[str, float, float] | None:
        if rec.get("ph") == "i" and is_decision(rec.get("name", "")):
            pid = int(rec.get("pid", 0) or 0)
            self.cuts_by_pid.setdefault(pid, []).append(
                float(rec.get("ts", 0.0) or 0.0)
            )
        return super().add(rec)

    def _account(
        self, rec: dict, name: str, energy_j: float, wall_s: float, dur: float
    ) -> tuple[str, float, float] | None:
        attributed = super()._account(rec, name, energy_j, wall_s, dur)
        if attributed is None:
            return None
        tid = int(rec.get("tid", 0) or 0)
        wid = int(rec.get("worker", -1))
        pid = int(rec.get("pid", 0) or 0)
        ts = float(rec.get("ts", 0.0) or 0.0)
        run = self.runs.setdefault(
            pid,
            {"pid": pid, "label": rec.get("label", ""), "worker": wid,
             "t0": ts, "t1": ts},
        )
        run["t0"] = min(run["t0"], ts)
        run["t1"] = max(run["t1"], ts + dur)
        if not run["label"] and rec.get("label"):
            run["label"] = rec["label"]
        self.events_by_pid.setdefault(pid, []).append(
            {
                "ts": ts,
                "dur": dur,
                "wall_s": wall_s,
                "name": name,
                "cat": attributed[0],
                "energy_j": energy_j,
                "rank": tid - 1 if tid > 0 else None,
            }
        )
        return attributed

    def to_json(self) -> dict:
        """The machine-readable report (``--format json``)."""
        return {
            "campaign": self.campaign,
            "total_energy_j": self.total_energy_j,
            "total_wall_s": self.total_wall_s,
            "records": self.records,
            "decisions": self.decisions,
            "actuations": self.actuations,
            "by_category": self.by_category,
            "by_phase": self.by_phase,
            "by_rank": {str(k): v for k, v in sorted(self.by_rank.items())},
            "by_worker": {
                str(k): v for k, v in sorted(self.by_worker.items())
            },
            "spans": {
                f"{cat}/{name}": stat
                for (cat, name), stat in sorted(self.spans.items())
            },
            "instants": dict(sorted(self.instants.items())),
            "intervals": self.intervals,
        }


def load_report_records(path: Path | str) -> tuple[dict | None, list[dict]]:
    """The ``campaign.summary`` args and every record of the JSONL trace
    at ``path`` (the summary is None for a run that did not finish)."""
    records = read_records(path)
    campaign = None
    for record in records:
        if record.get("ph") == "i" and record.get("name") == "campaign.summary":
            campaign = record.get("args")
    return campaign, records


def build_report(
    records: list[dict], campaign: dict | None = None
) -> AttributionReport:
    """Fold telemetry records into an :class:`AttributionReport`.

    Works on in-process and shipped (mux-stamped) tracer records alike,
    so serial and multi-worker campaigns report through the same path;
    records it does not attribute (campaign spans and instants) are
    counted and skipped.
    """
    report = AttributionReport(campaign=campaign)
    for rec in records:
        report.add(rec)
    for cuts in report.cuts_by_pid.values():
        cuts.sort()
    _slice_intervals(report)
    return report


def _slice_intervals(report: AttributionReport) -> None:
    """Attribute each run's events to its controller decision intervals.

    Interval ``i`` spans from decision instant ``i`` to instant
    ``i + 1`` (the last one runs to the end of the run); everything
    before the first decision is interval 0 as well — the controller's
    first decision typically fires at t=0. A run with no decisions is
    one interval covering the whole run.
    """
    for pid, events in sorted(report.events_by_pid.items()):
        run = report.runs[pid]
        # boundaries: [t0, cut1, cut2, ..., t1] with cuts <= t0 dropped
        bounds = [run["t0"]]
        for cut in report.cuts_by_pid.get(pid, []):
            if cut > bounds[-1]:
                bounds.append(cut)
        bounds.append(max(run["t1"], bounds[-1]))
        buckets = [
            {
                "pid": pid,
                "label": run["label"],
                "worker": run["worker"],
                "interval": i,
                "t0": bounds[i],
                "t1": bounds[i + 1],
                "energy_j": 0.0,
                "wall_s": 0.0,
                "by_category": {},
            }
            for i in range(len(bounds) - 1)
        ]
        for ev in events:
            # rightmost interval whose start is <= event start
            idx = 0
            for i in range(len(buckets)):
                if ev["ts"] >= buckets[i]["t0"]:
                    idx = i
            b = buckets[idx]
            b["energy_j"] += ev["energy_j"]
            b["wall_s"] += ev["wall_s"]
            _add(
                b["by_category"].setdefault(ev["cat"], _zero()),
                ev["energy_j"],
                ev["wall_s"],
            )
        report.intervals.extend(buckets)


# ---------------------------------------------------------------------
# text rendering


def render_text(report: AttributionReport, width: int = 40) -> str:
    """The ``--format text`` report."""
    lines = ["== energy attribution =="]

    def chart(title: str, rows: list[tuple[str, float]]) -> None:
        if rows:
            lines.extend(("", title, bar_chart(rows, width=width, fmt="{:10.3f}")))

    meta = report.campaign or {}
    if meta:
        lines.append(
            f"campaign {','.join(meta.get('experiments', [])) or '?'}"
            f" · {meta.get('cells', 0)} cells"
            f" · {meta.get('hits', 0)} cached"
        )
    lines.append(
        f"{report.records} telemetry records"
        f" · {report.decisions} controller decisions"
        f" · {report.actuations} cap actuations"
    )
    lines.append(
        f"total    {report.total_energy_j:.3f} J"
        f" over {report.total_wall_s:.3f} s (simulated)"
    )
    categories = sorted(report.by_category.items())
    chart("energy by category (J):", [(c, b["energy_j"]) for c, b in categories])
    chart("wall time by category (s):", [(c, b["wall_s"]) for c, b in categories])
    chart(
        "energy by phase (J):",
        [
            (name, b["energy_j"])
            for name, b in sorted(
                report.by_phase.items(), key=lambda kv: -kv[1]["energy_j"]
            )
        ],
    )
    chart(
        "energy by rank (J):",
        [
            (report.lane_labels.get(rank, f"rank {rank}"), b["energy_j"])
            for rank, b in sorted(report.by_rank.items())
        ],
    )
    if len(report.by_worker) > 1 or (
        report.by_worker and -1 not in report.by_worker
    ):
        chart(
            "energy by pool worker (J):",
            [
                ("serial" if wid < 0 else f"w{wid}", b["energy_j"])
                for wid, b in sorted(report.by_worker.items())
            ],
        )
    phases = sorted(
        (name[len("phase."):], b)
        for name, b in report.by_phase.items()
        if name.startswith("phase.")
    )
    if phases:
        lines.extend(("", "per-phase time/power:"))
        lines.append(
            f"  {'phase':<12} {'count':>6} {'time s':>10}"
            f" {'energy J':>10} {'mean W':>8} {'limited':>8}"
        )
        for kind, b in phases:
            mean_w = b["energy_j"] / b["wall_s"] if b["wall_s"] > 0 else 0.0
            lines.append(
                f"  {kind:<12} {b['count']:>6} {b['wall_s']:>10.4f}"
                f" {b['energy_j']:>10.2f} {mean_w:>8.1f} {b['limited']:>8}"
            )
    if report.spans:
        lines.extend(("", "span totals:"))
        for (cat, name), stat in sorted(report.spans.items()):
            lines.append(
                f"  {cat + '/' + name:<32} x{stat['count']:<5}"
                f" {stat['wall_s']:.4f} s"
            )
    if report.instants:
        lines.extend(("", "events:"))
        for name, n in sorted(report.instants.items()):
            lines.append(f"  {name:<32} x{n}")
    if report.intervals:
        lines.append("")
        lines.append(
            "decision intervals"
            f" ({len(report.intervals)} across {len(report.runs)} runs):"
        )
        lines.append(
            f"  {'run':>5} {'ivl':>4} {'t0':>9} {'t1':>9}"
            f" {'energy J':>10} {'wall s':>9}"
        )
        for b in report.intervals:
            lines.append(
                f"  {b['pid']:>5} {b['interval']:>4}"
                f" {b['t0']:>9.3f} {b['t1']:>9.3f}"
                f" {b['energy_j']:>10.3f} {b['wall_s']:>9.3f}"
                f"  {b['label']}"
            )
    return "\n".join(lines)
