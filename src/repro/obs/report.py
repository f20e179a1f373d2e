"""``campaign report``: SeeSAw-style energy attribution from a trace.

The paper's central accounting question — *where do the joules and the
wall time go under a power cap?* — is answered here from the campaign's
JSONL trace alone (``run --trace PATH.jsonl``). Its records carry every
phase the simulated ranks executed, in-process or shipped back by pool
workers (``phase.force``, ``phase.ana_cpu``, …, each
an ``X`` record with ``energy_j`` in args), the controller's decision
instants (``core.<approach>.decision``), the RAPL actuations
(``power.rapl.apply``) and the in-situ synchronization spans
(``insitu.sync`` ``B``/``E`` pairs). A DES run traces one lane per
rank; the analytic proxy traces one lane per partition (tid 1 the
simulation, tid 2 the analysis), each synchronization as a
``phase.md``/``phase.analysis`` span and an ``insitu.sync`` ``X`` span
whose args sum the partition's ranks (``energy_j``, ``ranks``,
``rank_s``). :func:`build_report` folds them into an
:class:`AttributionReport`, counting a span's ``rank_s`` as its seconds
where it has one, so the proxy's seconds stay rank-seconds:

* totals by **category** — MD (force/integrate/neighbor/comm) vs
  analysis (``ana_*``/``rdf_*``) vs sync-wait vs cap-actuation;
* totals by **phase**, by **rank** (by partition for the proxy) and by
  **worker**;
* per-run **decision intervals**: the controller's decision instants
  slice each run's virtual timeline, and every phase record is
  attributed to the interval it started in — the per-decision-interval
  joule ledger the SeeSAw evaluation plots.

Rendering: ``--format text`` (bar charts via :mod:`repro.util.term`),
``--format json`` (the report dict, machine-readable), ``--format
html`` (self-contained page with inline SVG timelines, see
:mod:`repro.obs.html`). Phase joule totals are, by construction, the
exact float sums a :class:`~repro.metrics.registry.MetricsSink` would
fold into ``span.<phase>.energy_j`` — the reconciliation test pins
this, so the report can never drift from the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.sinks import read_records
from repro.telemetry.summary import span_seconds
from repro.util.term import bar_chart

__all__ = [
    "AttributionReport",
    "build_report",
    "load_report_records",
    "render_text",
]

#: phase kinds accounted to molecular dynamics proper — the per-rank
#: DES runtime's decomposed kinds plus the proxy workload's aggregate
MD_PHASES = frozenset({"force", "integrate", "neighbor", "comm", "md"})

#: span names accounted to in-situ synchronization waits
SYNC_SPANS = frozenset({"insitu.sync", "insitu.exchange"})

#: ``by_rank`` keys of the proxy's per-partition lanes (tid - 1)
PARTITION_LANES = {0: "simulation partition", 1: "analysis partition"}


def category_of(name: str) -> str | None:
    """Attribution category for a telemetry record name (or None)."""
    if name.startswith("phase."):
        kind = name[len("phase."):]
        return "md" if kind in MD_PHASES else "analysis"
    if name in SYNC_SPANS:
        return "sync_wait"
    if name == "power.rapl.apply":
        return "cap_actuation"
    return None


def _zero() -> dict:
    return {"energy_j": 0.0, "wall_s": 0.0, "count": 0}


def _add(bucket: dict, energy_j: float, wall_s: float) -> None:
    bucket["energy_j"] += energy_j
    bucket["wall_s"] += wall_s
    bucket["count"] += 1


@dataclass
class AttributionReport:
    """Aggregated energy/time attribution for one campaign trace."""

    #: the ``campaign.summary`` instant's args (experiments, counts)
    campaign: dict | None = None
    #: md / analysis / sync_wait / cap_actuation -> {energy_j, wall_s, count}
    by_category: dict = field(default_factory=dict)
    #: full record name (``phase.force``, ``insitu.sync``) -> bucket
    by_phase: dict = field(default_factory=dict)
    #: simulated rank -> bucket (tid - 1; engine lane excluded); the
    #: proxy's lanes are partitions, 0 the simulation, 1 the analysis
    by_rank: dict = field(default_factory=dict)
    #: ``by_rank`` key -> partition name, for lanes fed by the proxy's
    #: per-partition spans (those with a ``ranks`` arg)
    lane_labels: dict = field(default_factory=dict)
    #: pool worker id (-1 = in-process/serial) -> bucket
    by_worker: dict = field(default_factory=dict)
    #: one entry per (run, decision interval): the SeeSAw ledger rows
    intervals: list = field(default_factory=list)
    #: per-run lanes for the HTML timelines: pid -> run descriptor
    runs: dict = field(default_factory=dict)
    #: pid -> attributed event stream / decision instants (feeds the
    #: HTML timelines; deliberately absent from :meth:`to_json`)
    events_by_pid: dict = field(default_factory=dict, repr=False)
    cuts_by_pid: dict = field(default_factory=dict, repr=False)
    decisions: int = 0
    actuations: int = 0
    records: int = 0

    @property
    def total_energy_j(self) -> float:
        return sum(b["energy_j"] for b in self.by_phase.values())

    @property
    def total_wall_s(self) -> float:
        return sum(b["wall_s"] for b in self.by_phase.values())

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
    decisions_by_pid: dict[int, list[dict]] = {}
    events_by_pid = report.events_by_pid
    open_spans: dict[tuple[int, int, str], dict] = {}

    def account(
        rec: dict, name: str, energy_j: float, wall_s: float, dur: float
    ) -> None:
        cat = category_of(name)
        if cat is None:
            return
        _add(report.by_phase.setdefault(name, _zero()), energy_j, wall_s)
        _add(report.by_category.setdefault(cat, _zero()), energy_j, wall_s)
        tid = int(rec.get("tid", 0) or 0)
        if tid > 0:
            _add(
                report.by_rank.setdefault(tid - 1, _zero()),
                energy_j,
                wall_s,
            )
            if tid - 1 in PARTITION_LANES and "ranks" in (rec.get("args") or {}):
                report.lane_labels[tid - 1] = PARTITION_LANES[tid - 1]
        wid = int(rec.get("worker", -1))
        _add(report.by_worker.setdefault(wid, _zero()), energy_j, wall_s)
        pid = int(rec.get("pid", 0) or 0)
        run = report.runs.setdefault(
            pid,
            {
                "pid": pid,
                "label": rec.get("label", ""),
                "worker": wid,
                "t0": float(rec.get("ts", 0.0) or 0.0),
                "t1": float(rec.get("ts", 0.0) or 0.0),
            },
        )
        ts = float(rec.get("ts", 0.0) or 0.0)
        run["t0"] = min(run["t0"], ts)
        run["t1"] = max(run["t1"], ts + dur)
        if not run["label"] and rec.get("label"):
            run["label"] = rec["label"]
        events_by_pid.setdefault(pid, []).append(
            {
                "ts": ts,
                "dur": dur,
                "wall_s": wall_s,
                "name": name,
                "cat": cat,
                "energy_j": energy_j,
                "rank": tid - 1 if tid > 0 else None,
            }
        )

    for rec in records:
        report.records += 1
        ph = rec.get("ph")
        name = rec.get("name", "")
        args = rec.get("args") or {}
        pid = int(rec.get("pid", 0) or 0)
        if ph == "X":
            account(
                rec,
                name,
                float(args.get("energy_j", 0.0) or 0.0),
                span_seconds(rec),
                float(rec.get("dur", 0.0) or 0.0),
            )
        elif ph == "B" and name in SYNC_SPANS:
            open_spans[(pid, int(rec.get("tid", 0) or 0), name)] = rec
        elif ph == "E" and name in SYNC_SPANS:
            begin = open_spans.pop(
                (pid, int(rec.get("tid", 0) or 0), name), None
            )
            if begin is not None:
                wall = float(rec.get("ts", 0.0) or 0.0) - float(
                    begin.get("ts", 0.0) or 0.0
                )
                account(begin, name, 0.0, max(wall, 0.0), max(wall, 0.0))
        elif ph == "i":
            if name.startswith("core.") and name.endswith(".decision"):
                report.decisions += 1
                decisions_by_pid.setdefault(pid, []).append(
                    {
                        "ts": float(rec.get("ts", 0.0) or 0.0),
                        "args": args,
                    }
                )
            elif name == "power.rapl.apply":
                report.actuations += 1
                account(rec, name, 0.0, 0.0, 0.0)

    report.cuts_by_pid = {
        pid: sorted(d["ts"] for d in ds)
        for pid, ds in decisions_by_pid.items()
    }
    _slice_intervals(report, events_by_pid, decisions_by_pid)
    return report


def _slice_intervals(
    report: AttributionReport,
    events_by_pid: dict[int, list[dict]],
    decisions_by_pid: dict[int, list[dict]],
) -> None:
    """Attribute each run's events to its controller decision intervals.

    Interval ``i`` spans from decision instant ``i`` to instant
    ``i + 1`` (the last one runs to the end of the run); everything
    before the first decision is interval 0 as well — the controller's
    first decision typically fires at t=0. A run with no decisions is
    one interval covering the whole run.
    """
    for pid, events in sorted(events_by_pid.items()):
        run = report.runs[pid]
        cuts = sorted(d["ts"] for d in decisions_by_pid.get(pid, []))
        # boundaries: [t0, cut1, cut2, ..., t1] with cuts <= t0 dropped
        bounds = [run["t0"]]
        for cut in cuts:
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
    lines: list[str] = []
    meta = report.campaign or {}
    lines.append("== campaign energy attribution ==")
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
    if report.by_category:
        lines.append("")
        lines.append("energy by category (J):")
        lines.append(
            bar_chart(
                [
                    (cat, bucket["energy_j"])
                    for cat, bucket in sorted(report.by_category.items())
                ],
                width=width,
                fmt="{:10.3f}",
            )
        )
        lines.append("")
        lines.append("wall time by category (s):")
        lines.append(
            bar_chart(
                [
                    (cat, bucket["wall_s"])
                    for cat, bucket in sorted(report.by_category.items())
                ],
                width=width,
                fmt="{:10.3f}",
            )
        )
    if report.by_phase:
        lines.append("")
        lines.append("energy by phase (J):")
        lines.append(
            bar_chart(
                [
                    (name, bucket["energy_j"])
                    for name, bucket in sorted(
                        report.by_phase.items(),
                        key=lambda kv: -kv[1]["energy_j"],
                    )
                ],
                width=width,
                fmt="{:10.3f}",
            )
        )
    if report.by_rank:
        lines.append("")
        lines.append("energy by rank (J):")
        lines.append(
            bar_chart(
                [
                    (report.lane_labels.get(rank, f"rank {rank}"), bucket["energy_j"])
                    for rank, bucket in sorted(report.by_rank.items())
                ],
                width=width,
                fmt="{:10.3f}",
            )
        )
    if len(report.by_worker) > 1 or (
        report.by_worker and -1 not in report.by_worker
    ):
        lines.append("")
        lines.append("energy by pool worker (J):")
        lines.append(
            bar_chart(
                [
                    ("serial" if wid < 0 else f"w{wid}", bucket["energy_j"])
                    for wid, bucket in sorted(report.by_worker.items())
                ],
                width=width,
                fmt="{:10.3f}",
            )
        )
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
