"""The ``trace`` subcommand: one small fully-instrumented in-situ job."""

from __future__ import annotations

import contextlib
import sys
from types import SimpleNamespace

from repro.telemetry import ChromeTraceSink, Tracer, summarize, use_tracer, validate_spans

__all__ = ["_cmd_trace"]


def _cmd_trace(args) -> int:
    """Run one small fully-instrumented in-situ job; write its trace."""
    from repro.experiments.runner import build_controller
    from repro.insitu import InsituConfig, run_insitu
    from repro.scenario.registry import RegistryError, get_controller

    try:
        # any registered controller traces, including the experimental
        # seesaw-exploring variant
        get_controller(args.approach)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cfg = InsituConfig(
        n_sim_ranks=args.ranks,
        n_ana_ranks=args.ranks,
        n_verlet_steps=args.steps,
        power_cap_w=args.budget,
        seed=args.seed,
    )
    # build_controller only reads the budget/shape triple off the config
    shape = SimpleNamespace(
        budget_w=cfg.world_size * cfg.power_cap_w,
        n_sim=cfg.n_sim_ranks,
        n_ana=cfg.n_ana_ranks,
    )
    controller = build_controller(args.approach, shape)
    sink = ChromeTraceSink()
    audit_journal = None
    scopes = contextlib.ExitStack()
    scopes.enter_context(use_tracer(Tracer(sink)))
    if args.audit is not None:
        from repro.metrics import AuditJournal, use_audit

        audit_journal = AuditJournal(args.audit)
        scopes.enter_context(use_audit(audit_journal))
    if args.faults is not None and args.chaos_seed is not None:
        print("--faults and --chaos-seed are mutually exclusive", file=sys.stderr)
        return 2
    if args.faults is not None or args.chaos_seed is not None:
        # after the tracer/audit scopes: the injector caches ambients
        from repro.faults import FaultInjector, FaultPlan, use_faults

        plan = (
            FaultPlan.from_spec(args.faults)
            if args.faults is not None
            else FaultPlan.sample(args.chaos_seed, cfg.world_size)
        )
        scopes.enter_context(use_faults(FaultInjector(plan)))
    try:
        with scopes:
            result = run_insitu(cfg, controller)
    finally:
        if audit_journal is not None:
            audit_journal.close()
    if result.fault_events:
        print(f"[{len(result.fault_events)} fault marker(s) fired]")
    if audit_journal is not None:
        print(f"[audit journal -> {args.audit}]")
    problems = validate_spans(sink.records)
    if problems:
        for p in problems:
            print(f"malformed trace: {p}", file=sys.stderr)
        return 1
    path = sink.write(args.out)
    print(summarize(sink.records).render())
    print()
    print(
        f"[{args.approach}: {cfg.n_verlet_steps} steps on "
        f"2x{args.ranks} ranks, virtual time {result.virtual_time_s:.3f} s "
        f"-> {len(sink.records)} records in {path}]"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0
