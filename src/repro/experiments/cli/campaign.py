"""The ``campaign`` subcommand: status / watch / report / resume."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.campaign import (
    CampaignEngine,
    CellStore,
    RunJournal,
    load_ledger,
    use_engine,
)
from repro.experiments import EXPERIMENTS
from repro.experiments.cli.common import _run_one

__all__ = ["_cmd_campaign"]


def _cmd_campaign(args) -> int:
    """Inspect, watch, report on, or re-enter a campaign journal."""
    if args.campaign_cmd == "watch":
        # a not-yet-created journal is watched patiently (start the
        # watch first, the sweep second), so no existence check here
        from repro.obs.watch import watch_journal

        return watch_journal(
            args.journal,
            interval=args.interval,
            iterations=args.iterations,
            once=args.once,
        )
    if not args.journal.exists():
        print(f"no journal at {args.journal}", file=sys.stderr)
        return 2
    if args.campaign_cmd == "report":
        return _cmd_campaign_report(args)
    ledger = load_ledger(args.journal)
    if args.campaign_cmd == "status":
        print(ledger.describe())
        return 0

    # resume
    meta = ledger.campaign
    if meta is None:
        print(
            "journal has no campaign header; only journals written by "
            "'run --journal PATH' are resumable",
            file=sys.stderr,
        )
        return 2
    if meta.get("faulted"):
        print(
            "campaign ran with fault injection (cache bypassed); "
            "faulted campaigns are not resumable",
            file=sys.stderr,
        )
        return 2
    cache = meta.get("cache")
    if not cache:
        print(
            "campaign ran with --no-cache, so completed cells left no "
            "reusable results; re-run it from scratch instead",
            file=sys.stderr,
        )
        return 2
    names = [n for n in meta.get("experiments", [])]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if not names or unknown:
        print(
            f"journal names unknown experiment(s): {', '.join(unknown) or '(none)'}",
            file=sys.stderr,
        )
        return 2
    overrides = dict(meta.get("overrides", {}))
    jobs = args.jobs if args.jobs is not None else int(meta.get("jobs", 1))
    previously = len(ledger.completed)
    in_flight = len(ledger.in_flight)
    cid = meta.get("id", "?")
    print(
        f"[resuming campaign {cid}: {previously} cells complete, "
        f"{in_flight} were in flight]",
        file=sys.stderr,
    )

    journal = RunJournal(args.journal)
    journal.resume(cid, previously_completed=previously, in_flight=in_flight)
    engine = CampaignEngine(
        jobs=jobs,
        store=CellStore(Path(cache)),
        journal=journal,
        progress=sys.stderr.isatty(),
    )
    engine.obs.campaign_id = cid
    output = Path(meta["output"]) if meta.get("output") else None
    try:
        with use_engine(engine):
            for name in names:
                print(_run_one(name, overrides, output))
                print()
        journal.summary(jobs=jobs, experiments=names, resumed=True)
    finally:
        engine.close()
        journal.close()
    c = engine.journal.counts
    print(
        f"[campaign {cid} resumed: {c['hits']} cells served from the "
        f"cache, {c['misses']} executed this leg]"
    )
    return 0


def _cmd_campaign_report(args) -> int:
    """``campaign report``: energy attribution from journal telemetry."""
    from repro.obs.report import build_report, load_report_records, render_text

    campaign, telemetry = load_report_records(args.journal)
    report = build_report(telemetry, campaign=campaign)
    if not telemetry:
        print(
            "journal has no telemetry rows (campaign ran with --jobs 1 "
            "without --trace, or predates shipping); report will be "
            "empty",
            file=sys.stderr,
        )
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    elif args.format == "html":
        from repro.obs.html import render_html

        text = render_html(report)
    else:
        text = render_text(report) + "\n"
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"[campaign report ({args.format}) -> {args.out}]")
    else:
        sys.stdout.write(text)
    return 0
