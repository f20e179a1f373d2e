"""The ``campaign`` subcommand: watch / report on a JSONL trace."""

from __future__ import annotations

import json
import sys

__all__ = ["_cmd_campaign"]


def _cmd_campaign(args) -> int:
    """Watch or report on a campaign's JSONL trace."""
    if args.campaign_cmd == "watch":
        # a not-yet-created trace is watched patiently (start the
        # watch first, the sweep second), so no existence check here
        from repro.obs.watch import watch_journal

        return watch_journal(
            args.trace,
            interval=args.interval,
            iterations=args.iterations,
            once=args.once,
        )
    if not args.trace.exists():
        print(f"no trace at {args.trace}", file=sys.stderr)
        return 2
    return _cmd_campaign_report(args)


def _cmd_campaign_report(args) -> int:
    """``campaign report``: energy attribution from a JSONL trace."""
    from repro.obs.report import build_report, load_report_records, render_text

    campaign, records = load_report_records(args.trace)
    report = build_report(records, campaign=campaign)
    if not report.by_phase:
        print(
            "trace has no phase records (not a JSONL trace from "
            "'run --trace PATH.jsonl'?); report will be empty",
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
