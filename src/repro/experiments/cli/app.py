"""Entry point and dispatch for ``seesaw-experiments``."""

from __future__ import annotations

import os
import sys

from repro.experiments.cli.parser import build_parser

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # The reader side of stdout went away (`... | head`, a closed
        # pager). Point stdout at devnull so interpreter shutdown does
        # not warn about the unflushable buffer, and exit with the
        # conventional 128+SIGPIPE code instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.experiments.cli.run import _cmd_list

        return _cmd_list()

    if args.command == "trace":
        if args.steps < 1 or args.ranks < 1:
            parser.error("--steps and --ranks must be >= 1")
        from repro.experiments.cli.trace import _cmd_trace

        return _cmd_trace(args)

    if args.command == "audit":
        from repro.experiments.cli.audit import _cmd_audit

        return _cmd_audit(args)

    if args.command == "chaos":
        if args.steps < 1 or args.ranks < 1:
            parser.error("--steps and --ranks must be >= 1")
        from repro.experiments.cli.chaos import _cmd_chaos

        return _cmd_chaos(args)

    if args.command == "scenario":
        from repro.experiments.cli.scenario import _cmd_scenario

        return _cmd_scenario(args)

    if args.command == "campaign":
        if args.campaign_cmd == "resume" and args.jobs is not None and args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.campaign_cmd == "watch":
            if args.interval <= 0:
                parser.error("--interval must be > 0")
            if args.iterations is not None and args.iterations < 1:
                parser.error("--iterations must be >= 1")
        from repro.experiments.cli.campaign import _cmd_campaign

        return _cmd_campaign(args)

    from repro.experiments.cli.run import _cmd_run

    return _cmd_run(parser, args)
