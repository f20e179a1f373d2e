"""Self-contained HTML rendering for ``campaign report --format html``.

One static page, zero external assets (no scripts, no CSS/font CDNs,
no image files): styles are inlined and every figure is an inline SVG
built from the :class:`~repro.obs.report.AttributionReport`, so the
file can be archived next to the campaign trace, attached to CI as
an artifact, or opened from a USB stick on an air-gapped cluster and
render identically.

Figures: per-category energy/wall summary table, horizontal energy
bars by phase, and one timeline SVG per simulated run — a row per
rank, phase spans colored by attribution category, controller decision
instants as vertical rules — the visual form of the paper's
per-decision-interval accounting. Runs with more spans than
:data:`RASTERIZE_ABOVE` are rasterized into pixel-column runs, which
bounds the page by the pixel area of its timelines rather than by
campaign length (the per-run caption notes the switch).
"""

from __future__ import annotations

import html as _html

from repro.obs.report import AttributionReport, category_of

__all__ = ["render_html"]

#: attribution category -> fill color (colorblind-safe-ish palette)
CATEGORY_COLORS = {
    "md": "#4477aa",
    "analysis": "#ee6677",
    "sync_wait": "#ccbb44",
    "cap_actuation": "#aa3377",
}
_FALLBACK_COLOR = "#8899aa"

#: spans per run above which timeline lanes are rasterized into
#: pixel-column runs (dominant category per column) instead of one
#: rect per span — a long campaign would otherwise emit hundreds of
#: megabytes of SVG; the rendered pixels are nearly identical either
#: way, and the page notes the switch so the cap is never silent
RASTERIZE_ABOVE = 2000

#: rasterized column width in px: wider columns merge the rapid
#: md/sync alternation that would otherwise defeat run-merging and
#: keep one rect per visible block rather than per pixel
RASTER_COL_PX = 4

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 70rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; }
th, td { padding: 0.3rem 0.8rem; border-bottom: 1px solid #ddd;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
.legend span { display: inline-block; margin-right: 1.2rem; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          margin-right: 0.3em; vertical-align: baseline; }
svg { background: #fafafa; border: 1px solid #ddd; margin: 0.4rem 0; }
.meta { color: #666; font-size: 0.9rem; }
"""


def _esc(text) -> str:
    return _html.escape(str(text), quote=True)


def _color(cat: str) -> str:
    return CATEGORY_COLORS.get(cat, _FALLBACK_COLOR)


def _category_table(report: AttributionReport) -> str:
    total_j = report.total_energy_j or 1.0
    rows = []
    for cat, bucket in sorted(report.by_category.items()):
        rows.append(
            "<tr><td><span class='swatch' style='background:"
            f"{_color(cat)}'></span>{_esc(cat)}</td>"
            f"<td>{bucket['energy_j']:.3f}</td>"
            f"<td>{bucket['energy_j'] / total_j * 100:.1f}%</td>"
            f"<td>{bucket['wall_s']:.3f}</td>"
            f"<td>{bucket['count']}</td></tr>"
        )
    return (
        "<table><tr><th>category</th><th>energy (J)</th><th>share</th>"
        "<th>wall (s)</th><th>records</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _phase_bars(report: AttributionReport, width: int = 640) -> str:
    """Horizontal energy-by-phase bars as one inline SVG."""
    phases = sorted(
        report.by_phase.items(), key=lambda kv: -kv[1]["energy_j"]
    )
    if not phases:
        return "<p class='meta'>no phase records</p>"
    peak = max(b["energy_j"] for _, b in phases) or 1.0
    row_h, label_w = 22, 170
    height = row_h * len(phases) + 10
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}'"
        f" height='{height}' role='img'>"
    ]
    for i, (name, bucket) in enumerate(phases):
        y = 5 + i * row_h
        bar_w = (bucket["energy_j"] / peak) * (width - label_w - 90)
        fill = _color(category_of(name) or "")
        parts.append(
            f"<text x='{label_w - 6}' y='{y + 14}' text-anchor='end'"
            f" font-size='12'>{_esc(name)}</text>"
            f"<rect x='{label_w}' y='{y + 3}' width='{max(bar_w, 1):.1f}'"
            f" height='{row_h - 8}' fill='{fill}'/>"
            f"<text x='{label_w + max(bar_w, 1) + 6:.1f}' y='{y + 14}'"
            f" font-size='11' fill='#555'>{bucket['energy_j']:.3f} J</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _raster_lane(
    lane_events: list[dict], t0: float, span: float, ncols: int
) -> list[list]:
    """Merge one rank lane into ``[col0, col1, category]`` pixel runs.

    Each span votes its duration into the pixel columns it overlaps;
    a column shows its duration-dominant category, and consecutive
    same-category columns collapse into one rect.
    """
    weight: list[dict[str, float]] = [{} for _ in range(ncols)]
    for ev in lane_events:
        c0 = int((ev["ts"] - t0) / span * ncols)
        c1 = int((ev["ts"] + ev["dur"] - t0) / span * ncols)
        lo, hi = max(c0, 0), min(c1, ncols - 1)
        if hi < lo:
            continue
        vote = ev["dur"] / (hi - lo + 1)
        for col in range(lo, hi + 1):
            weight[col][ev["cat"]] = weight[col].get(ev["cat"], 0.0) + vote
    runs: list[list] = []
    for col, votes in enumerate(weight):
        if not votes:
            continue
        cat = max(votes, key=lambda c: votes[c])
        if runs and runs[-1][1] == col - 1 and runs[-1][2] == cat:
            runs[-1][1] = col
        else:
            runs.append([col, col, cat])
    return runs


def _run_timeline(run: dict, events: list[dict], cuts: list[float], width: int = 900) -> str:
    """One run's timeline: a row per rank, spans colored by category."""
    t0, t1 = run["t0"], max(run["t1"], run["t0"] + 1e-9)
    span = t1 - t0
    ranks = sorted({ev["rank"] for ev in events if ev["rank"] is not None})
    lanes = {rank: i for i, rank in enumerate(ranks)}
    row_h, label_w, pad = 18, 60, 4
    height = row_h * max(len(ranks), 1) + 2 * pad + 14
    plot_w = width - label_w - 10

    def x(t: float) -> float:
        return label_w + (t - t0) / span * plot_w
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}'"
        f" height='{height}' role='img'>"
    ]
    for rank in ranks:
        y = pad + lanes[rank] * row_h
        parts.append(
            f"<text x='{label_w - 6}' y='{y + 13}' text-anchor='end'"
            f" font-size='11'>r{rank}</text>"
        )
    if len(events) > RASTERIZE_ABOVE:
        by_rank: dict[int, list[dict]] = {}
        for ev in events:
            if ev["rank"] is not None:
                by_rank.setdefault(ev["rank"], []).append(ev)
        ncols = int(plot_w) // RASTER_COL_PX
        for rank, lane_events in sorted(by_rank.items()):
            y = pad + lanes[rank] * row_h
            for c0, c1, cat in _raster_lane(lane_events, t0, span, ncols):
                parts.append(
                    f"<rect x='{label_w + c0 * RASTER_COL_PX}' y='{y + 2}'"
                    f" width='{(c1 - c0 + 1) * RASTER_COL_PX}'"
                    f" height='{row_h - 4}' fill='{_color(cat)}'>"
                    f"<title>mostly {_esc(cat)}</title></rect>"
                )
    else:
        for ev in events:
            if ev["rank"] is None:
                continue
            y = pad + lanes[ev["rank"]] * row_h
            w = max((ev["dur"] / span) * plot_w, 0.5)
            parts.append(
                f"<rect x='{x(ev['ts']):.2f}' y='{y + 2}' width='{w:.2f}'"
                f" height='{row_h - 4}' fill='{_color(ev['cat'])}'>"
                f"<title>{_esc(ev['name'])} · {ev['dur']:.4f} s ·"
                f" {ev['energy_j']:.4f} J</title></rect>"
            )
    for cut in cuts:
        parts.append(
            f"<line x1='{x(cut):.2f}' y1='0' x2='{x(cut):.2f}'"
            f" y2='{height - 14}' stroke='#333' stroke-dasharray='3,2'/>"
        )
    parts.append(
        f"<text x='{label_w}' y='{height - 2}' font-size='10'"
        f" fill='#666'>{t0:.2f} s</text>"
        f"<text x='{width - 10}' y='{height - 2}' text-anchor='end'"
        f" font-size='10' fill='#666'>{t1:.2f} s</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def render_html(report: AttributionReport) -> str:
    """The complete self-contained report page."""
    events_by_pid = report.events_by_pid
    meta = report.campaign or {}
    experiments = ",".join(meta.get("experiments", []))
    title = f"campaign report · {experiments or 'unidentified'}"
    legend = "".join(
        f"<span><span class='swatch' style='background:{color}'></span>"
        f"{_esc(cat)}</span>"
        for cat, color in CATEGORY_COLORS.items()
    )
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        "<p class='meta'>",
        f"experiments: {_esc(experiments or '?')}"
        f" · {report.records} telemetry records"
        f" · {report.decisions} decisions"
        f" · {report.actuations} cap actuations<br>"
        f"total {report.total_energy_j:.3f} J over"
        f" {report.total_wall_s:.3f} simulated seconds</p>",
        f"<p class='legend'>{legend}</p>",
        "<h2>Energy by category</h2>",
        _category_table(report),
        "<h2>Energy by phase</h2>",
        _phase_bars(report),
    ]
    if events_by_pid:
        parts.append("<h2>Run timelines</h2>")
        for pid in sorted(events_by_pid):
            run = report.runs.get(pid)
            if run is None:
                continue
            label = run["label"] or f"run {pid}"
            worker = run["worker"]
            who = "serial" if worker < 0 else f"worker {worker}"
            n_spans = len(events_by_pid[pid])
            note = (
                f" · rasterized ({n_spans} spans)"
                if n_spans > RASTERIZE_ABOVE
                else ""
            )
            parts.append(
                f"<p class='meta'>{_esc(label)} · {who}"
                f" · trace pid {pid}{note}</p>"
            )
            parts.append(
                _run_timeline(
                    run,
                    events_by_pid[pid],
                    report.cuts_by_pid.get(pid, []),
                )
            )
    if report.intervals:
        parts.append("<h2>Decision intervals</h2>")
        rows = "".join(
            f"<tr><td>{b['pid']}</td><td>{_esc(b['label'])}</td>"
            f"<td>{b['interval']}</td><td>{b['t0']:.3f}</td>"
            f"<td>{b['t1']:.3f}</td><td>{b['energy_j']:.3f}</td>"
            f"<td>{b['wall_s']:.3f}</td></tr>"
            for b in report.intervals
        )
        parts.append(
            "<table><tr><th>run</th><th>cell</th><th>interval</th>"
            "<th>t0 (s)</th><th>t1 (s)</th><th>energy (J)</th>"
            "<th>wall (s)</th></tr>" + rows + "</table>"
        )
    parts.append("</body></html>")
    return "".join(parts)
