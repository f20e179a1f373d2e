"""The full ``seesaw-experiments`` argparse tree, in one place.

Every subcommand module consumes the namespace this parser produces;
keeping the flag definitions together makes "no flag changes" reviews
a single-file diff.
"""

from __future__ import annotations

import argparse
from pathlib import Path

__all__ = ["build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seesaw-experiments",
        description="Regenerate the SeeSAw paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    _add_run(sub)
    _add_trace(sub)
    _add_audit(sub)
    _add_chaos(sub)
    _add_campaign(sub)
    _add_scenario(sub)
    return parser


def _add_run(sub) -> None:
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id or 'all' (omit when using --spec)",
    )
    run_p.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="run the scenarios declared in a spec file (single "
        "scenario, suite, or sweep JSON; see the 'scenario' "
        "subcommand) instead of a named experiment",
    )
    run_p.add_argument(
        "--quick",
        action="store_true",
        help="fewer steps / single run for a fast smoke pass",
    )
    run_p.add_argument(
        "--runs",
        type=int,
        default=None,
        metavar="N",
        help="repeated runs per data point (overrides --quick's 1)",
    )
    run_p.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write <name>.txt and <name>.json artifacts",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cell fan-out (default: 1, serial)",
    )
    run_p.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="cell result cache directory "
        "(default: $SEESAW_CACHE_DIR or ~/.cache/seesaw-repro/cells)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cell result cache",
    )
    run_p.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help="append a JSONL journal line per cell (plus a summary)",
    )
    run_p.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the in-process runs "
        "(open in chrome://tracing or Perfetto)",
    )
    run_p.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="collect streaming metrics over the in-process runs and "
        "write a report (.json -> JSON, otherwise Prometheus text)",
    )
    run_p.add_argument(
        "--audit",
        type=Path,
        default=None,
        metavar="PATH",
        help="journal every controller decision to a JSONL audit file, "
        "overwriting it (replay/diff/timeline via the 'audit' subcommand); "
        "needs --jobs 1",
    )
    run_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject RAPL actuation faults into the in-process runs, "
        "which reach the analytic experiments through the shared RAPL "
        "layer: a fault-plan JSON path or the DSL "
        "'kind@START+DUR[xMAG];...' (kinds: cap_drop cap_lag cap_skew, "
        "domain-wide; the other kinds act only on DES-backed jobs, see "
        "'trace' and 'chaos')",
    )
    run_p.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="sample a seed-replayable plan of the --faults kinds "
        "instead of --faults (same seed => byte-identical fault "
        "schedule)",
    )
    run_p.add_argument(
        "--chaos-horizon",
        type=float,
        default=20.0,
        metavar="S",
        help="virtual-time horizon the sampled plan covers "
        "(default: 20 s; only with --chaos-seed)",
    )
    run_p.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="PATH",
        help="profile the in-process run with cProfile and dump pstats "
        "data to PATH (top hotspots go to stderr; pool workers under "
        "--jobs N are not captured)",
    )


def _add_trace(sub) -> None:
    trace_p = sub.add_parser(
        "trace",
        help="run a small traced in-situ job and write a Chrome trace",
        description="Run one fully-instrumented in-situ job (real MD + "
        "analyses on simulated MPI) and export spans from the DES, "
        "controller, power, and in-situ layers as Chrome trace_event "
        "JSON, plus a per-phase time/power summary.",
    )
    trace_p.add_argument(
        "--out",
        type=Path,
        default=Path("trace.json"),
        metavar="PATH",
        help="output trace path (default: trace.json)",
    )
    trace_p.add_argument(
        "--approach",
        default="seesaw",
        help="controller to trace — any registered approach, including "
        "the experimental seesaw-exploring (default: seesaw)",
    )
    trace_p.add_argument(
        "--steps",
        type=int,
        default=6,
        metavar="N",
        help="Verlet steps (default: 6)",
    )
    trace_p.add_argument(
        "--ranks",
        type=int,
        default=2,
        metavar="N",
        help="ranks per partition (default: 2)",
    )
    trace_p.add_argument(
        "--budget",
        type=float,
        default=110.0,
        metavar="W",
        help="per-node power budget in watts (default: 110)",
    )
    trace_p.add_argument(
        "--seed", type=int, default=2020, help="job seed (default: 2020)"
    )
    trace_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults into the traced job (plan JSON path or DSL)",
    )
    trace_p.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="sample a fault plan for the traced job instead of --faults",
    )
    trace_p.add_argument(
        "--audit",
        type=Path,
        default=None,
        metavar="PATH",
        help="journal the traced job's decisions (and fault windows / "
        "degraded-observation holds) to a JSONL audit file, overwriting it",
    )


def _add_audit(sub) -> None:
    audit_p = sub.add_parser(
        "audit",
        help="replay, diff, or render recorded controller journals",
        description="Work with JSONL audit journals recorded by "
        "'run --audit PATH': re-execute every decision from its "
        "recorded inputs (replay), compare two runs decision by "
        "decision (diff), or render the power-split timeline.",
    )
    audit_sub = audit_p.add_subparsers(dest="audit_cmd", required=True)
    replay_p = audit_sub.add_parser(
        "replay", help="recompute every decision; exit 1 on any mismatch"
    )
    replay_p.add_argument("journal", type=Path, help="audit JSONL path")
    diff_p = audit_sub.add_parser(
        "diff", help="compare two journals; exit 1 iff decisions diverge"
    )
    diff_p.add_argument("a", type=Path)
    diff_p.add_argument("b", type=Path)
    timeline_p = audit_sub.add_parser(
        "timeline", help="terminal power-split timeline of one journal"
    )
    timeline_p.add_argument("journal", type=Path, help="audit JSONL path")


def _add_chaos(sub) -> None:
    chaos_p = sub.add_parser(
        "chaos",
        help="sweep controllers x fault kinds; report resilience per cell",
        description="Chaos-test the controllers: for every controller "
        "run a clean baseline, then one faulted run per fault kind "
        "under a seeded fault plan, and report completion, slowdown, "
        "allocation stability, and budget compliance per cell. The "
        "sweep itself is a declarative scenario matrix (dump it with "
        "--matrix-out). Exits 1 when any cell crashes, breaches the "
        "budget, or (for non-timing faults) regresses past "
        "--fail-threshold.",
    )
    chaos_p.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    chaos_p.add_argument(
        "--controllers",
        default=None,
        metavar="A,B,...",
        help="comma-separated approaches (default: all four)",
    )
    chaos_p.add_argument(
        "--kinds",
        default=None,
        metavar="K,L,...",
        help="comma-separated fault kinds (default: the full taxonomy)",
    )
    chaos_p.add_argument(
        "--steps",
        type=int,
        default=8,
        metavar="N",
        help="Verlet steps per run (default: 8)",
    )
    chaos_p.add_argument(
        "--ranks",
        type=int,
        default=2,
        metavar="N",
        help="ranks per partition (default: 2)",
    )
    chaos_p.add_argument(
        "--budget",
        type=float,
        default=110.0,
        metavar="W",
        help="per-node power budget in watts (default: 110)",
    )
    chaos_p.add_argument(
        "--events",
        type=Path,
        default=None,
        metavar="PATH",
        help="write every fired fault-marker row (tagged with its "
        "cell) as JSONL",
    )
    chaos_p.add_argument(
        "--matrix-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the sweep's declarative scenario-matrix suite "
        "JSON (inspect with 'scenario expand PATH')",
    )
    chaos_p.add_argument(
        "--fail-threshold",
        type=float,
        default=0.25,
        metavar="F",
        help="max tolerated fractional slowdown for non-timing fault "
        "kinds (default: 0.25)",
    )


def _add_campaign(sub) -> None:
    campaign_p = sub.add_parser(
        "campaign",
        help="inspect, watch, report on, or resume a campaign journal",
        description="Work with campaign journals written by "
        "'run --journal PATH': 'status' prints the replayable ledger "
        "(completed / in-flight cells, resumability); 'watch' tails "
        "the journal as a live in-terminal dashboard (worker "
        "utilization, steals, ETA, cache hit rate, power sparklines); "
        "'report' renders the SeeSAw-style energy attribution (joules "
        "and wall time by rank x phase x controller decision interval) "
        "as text, JSON, or self-contained HTML; 'resume' "
        "re-enters a killed campaign — completed cells are served from "
        "the recorded cell cache (never recomputed), in-flight and "
        "pending cells execute normally, and the merged results are "
        "bit-identical to an uninterrupted run.",
    )
    campaign_sub = campaign_p.add_subparsers(dest="campaign_cmd", required=True)
    status_p = campaign_sub.add_parser(
        "status", help="print the campaign ledger of one journal"
    )
    status_p.add_argument("journal", type=Path, help="campaign journal path")
    watch_p = campaign_sub.add_parser(
        "watch",
        help="live dashboard: tail a (possibly still-running) campaign",
    )
    watch_p.add_argument("journal", type=Path, help="campaign journal path")
    watch_p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="refresh period in seconds (default: 1.0)",
    )
    watch_p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until the summary row)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit",
    )
    report_p = campaign_sub.add_parser(
        "report",
        help="energy attribution report from the journal's telemetry",
    )
    report_p.add_argument("journal", type=Path, help="campaign journal path")
    report_p.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
        help="output format (default: text)",
    )
    report_p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    resume_p = campaign_sub.add_parser(
        "resume",
        help="resume a killed campaign; completed cells are never recomputed",
    )
    resume_p.add_argument("journal", type=Path, help="campaign journal path")
    resume_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="override the recorded worker count for the resumed leg",
    )


def _add_scenario(sub) -> None:
    scenario_p = sub.add_parser(
        "scenario",
        help="list, validate, expand, or hash scenario spec files",
        description="Work with the declarative scenario layer (see "
        "repro.scenario): 'list' shows the shipped suites under "
        "specs/ (or one suite's scenarios); 'validate' checks spec "
        "files against the registries and controller options and "
        "exits 1 with actionable messages on any problem; 'expand' "
        "prints a file's concrete scenarios with sweeps "
        "(matrix axes) expanded; 'hash' prints content hashes and "
        "with --check verifies every shipped suite against "
        "specs/HASHES.json (the CI drift gate).",
    )
    scen_sub = scenario_p.add_subparsers(dest="scenario_cmd", required=True)
    list_p = scen_sub.add_parser(
        "list", help="list shipped suites (or one suite's scenarios)"
    )
    list_p.add_argument(
        "suite",
        nargs="?",
        default=None,
        help="suite name to list the scenarios of (default: all suites)",
    )
    val_p = scen_sub.add_parser(
        "validate", help="validate spec file(s); exit 1 on any problem"
    )
    val_p.add_argument(
        "files",
        nargs="*",
        type=Path,
        default=[],
        help="spec files to validate (default: every shipped specs/*.json)",
    )
    exp_p = scen_sub.add_parser(
        "expand", help="print a file's concrete scenarios (sweeps expanded)"
    )
    exp_p.add_argument(
        "file", help="spec file path, or the name of a shipped suite"
    )
    exp_p.add_argument(
        "--json",
        action="store_true",
        help="print the expanded scenarios as JSON instead of names",
    )
    hash_p = scen_sub.add_parser(
        "hash",
        help="print suite content hashes; --check gates against "
        "specs/HASHES.json",
    )
    hash_p.add_argument(
        "files",
        nargs="*",
        default=[],
        help="spec file paths or shipped suite names "
        "(default with --check: every pinned suite)",
    )
    hash_p.add_argument(
        "--check",
        action="store_true",
        help="verify hashes against specs/HASHES.json; exit 1 on drift",
    )
