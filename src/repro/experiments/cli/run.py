"""The ``run`` and ``list`` subcommands.

``run`` executes either a named experiment harness (``run fig4``) or a
declarative spec file (``run --spec specs/fig4.json``); both paths go
through the same campaign engine, ambient-scope plumbing, and artifact
writing, so every flag (``--jobs``, ``--cache``, ``--trace``, ...)
behaves identically.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign import use_engine
from repro.experiments import EXPERIMENTS
from repro.experiments.cli.common import (
    QUICK_OVERRIDES,
    _build_engine,
    _first_doc_line,
    _jsonable,
    _run_one,
)
from repro.telemetry import ChromeTraceSink, JsonlSink, Tracer, use_tracer

__all__ = ["_cmd_list", "_cmd_run"]

#: the fault kinds ``run`` applies. Its experiments run on the analytic
#: proxy, which faults reach only through the shared RAPL layer, and
#: the proxy requests caps for a whole partition, so only domain-wide
#: actuation events fire there. The other kinds act on DES-backed jobs
#: (``trace``, ``chaos``).
RUN_FAULT_KINDS = ("cap_drop", "cap_lag", "cap_skew")


def _cmd_list() -> int:
    """``list``: every experiment, its one-line doc, and its spec file."""
    from repro.scenario import spec_path

    width = max(len(n) for n in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        line = f"{name:<{width}}  {_first_doc_line(EXPERIMENTS[name])}"
        if spec_path(name).is_file():
            line += f"  [specs/{name}.json]"
        print(line)
    return 0


def _load_run_suite(path: Path):
    """Load + validate a ``run --spec`` file; (suite, None) or (None, rc)."""
    from repro.scenario import SpecError, load_spec_file, validate_spec

    try:
        suite = load_spec_file(path)
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return None, 2
    problems = [p for s in suite for p in validate_spec(s)]
    if not problems:
        # a valid scenario whose workload the engine does not run
        for s in suite:
            try:
                s.to_cells()
            except SpecError as exc:
                problems.append(str(exc))
    if problems:
        for p in problems:
            print(f"invalid spec: {p}", file=sys.stderr)
        return None, 2
    return suite, None


def _run_spec_suite(suite, overrides: dict, output: Path | None) -> str:
    """Execute every scenario of a loaded suite as one engine batch.

    Paired scenarios (``baseline_sim_share`` set) report the median
    improvement over their static baseline; plain scenarios report the
    median total runtime. ``--quick``/``--runs`` map onto ``repeats``
    and ``n_verlet_steps`` just as they do for the named harnesses.
    """
    from repro.experiments.runner import improvement, run_specs

    t0 = time.perf_counter()
    specs = []
    for spec in suite:
        if "n_runs" in overrides:
            spec = dataclasses.replace(spec, repeats=overrides["n_runs"])
        if "n_verlet_steps" in overrides:
            spec = spec.with_job(n_verlet_steps=overrides["n_verlet_steps"])
        specs.append(spec)
    rows: list[tuple[str, str]] = []
    payload: list[dict] = []
    for spec, results in zip(specs, run_specs(specs)):
        if spec.baseline_sim_share is not None:
            imp = improvement(spec, results)
            rows.append(
                (
                    spec.name,
                    f"{imp:+.2f} % vs static (median of {spec.repeats})",
                )
            )
            payload.append(
                {
                    "name": spec.name,
                    "mode": "paired",
                    "repeats": spec.repeats,
                    "improvement_pct": imp,
                }
            )
        else:
            times = [r.total_time_s for r in results]
            label = f"{float(np.median(times)):.3f} s"
            if len(times) > 1:
                label += f" (median of {len(times)})"
            rows.append((spec.name, label))
            payload.append(
                {
                    "name": spec.name,
                    "mode": "plain",
                    "total_time_s": times,
                }
            )
    elapsed = time.perf_counter() - t0
    width = max(len(n) for n, _ in rows)
    rendered = "\n".join(
        [
            f"suite {suite.name}: {len(suite)} scenario(s)",
            *[f"{n:<{width}}  {v}" for n, v in rows],
        ]
    )
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{suite.name}.txt").write_text(rendered + "\n")
        (output / f"{suite.name}.json").write_text(
            json.dumps(
                _jsonable({"suite": suite.name, "scenarios": payload}),
                indent=2,
            )
            + "\n"
        )
    return f"{rendered}\n\n[{suite.name} ran in {elapsed:.1f} s]"


def _run_fault_plan(parser, args):
    """The plan ``--faults``/``--chaos-seed`` ask for, or ``None``.

    A parser error names any event ``run`` would silently never apply.
    """
    if args.faults is None and args.chaos_seed is None:
        return None
    from repro.faults import FaultPlan

    if args.chaos_seed is not None:
        # each kind draws from its own child stream, so restricting the
        # kinds leaves these kinds' events as the full sample has them
        # (the cap kinds discard their rank draw: they hit every node)
        return FaultPlan.sample(
            args.chaos_seed,
            n_ranks=16,
            horizon_s=args.chaos_horizon,
            kinds=RUN_FAULT_KINDS,
        )
    try:
        plan = FaultPlan.from_spec(args.faults)
    except ValueError as exc:
        parser.error(str(exc))
    ignored = sorted(set(plan.kinds) - set(RUN_FAULT_KINDS))
    if ignored:
        parser.error(
            f"--faults: run never applies {', '.join(ignored)} "
            f"(it takes {', '.join(RUN_FAULT_KINDS)}); inject the other "
            "kinds into a DES-backed job with 'trace' or 'chaos'"
        )
    if any(e.rank is not None for e in plan.events):
        parser.error(
            "--faults: run applies cap faults to whole partitions; "
            "drop the ':rankN' target"
        )
    return plan


def _cmd_run(parser, args) -> int:
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.faults is not None and args.chaos_seed is not None:
        parser.error("--faults and --chaos-seed are mutually exclusive")
    if args.audit is not None and args.jobs > 1:
        parser.error(
            "--audit needs --jobs 1: pool workers ship trace records but "
            "no audit rows"
        )
    if args.spec is not None and args.experiment is not None:
        parser.error("give an experiment id or --spec FILE, not both")
    if args.spec is None and args.experiment is None:
        parser.error("an experiment id (or --spec FILE) is required")
    plan = _run_fault_plan(parser, args)

    suite = None
    if args.spec is not None:
        suite, rc = _load_run_suite(args.spec)
        if suite is None:
            return rc
        names = [f"spec:{suite.name}"]
    else:
        names = (
            sorted(EXPERIMENTS)
            if args.experiment == "all"
            else [args.experiment]
        )
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiment(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            print(
                f"available: {', '.join(sorted(EXPERIMENTS))}",
                file=sys.stderr,
            )
            return 2

    overrides = dict(QUICK_OVERRIDES) if args.quick else {}
    if args.runs is not None:
        overrides["n_runs"] = args.runs

    # One tracer can feed both the metrics registry and the trace file:
    # the MetricsSink folds records and forwards to the file sink, so
    # --metrics and --trace compose. A .jsonl trace streams as it runs
    # (what 'campaign watch' tails); any other is Chrome JSON at exit.
    trace_sink = None
    registry = None
    audit_journal = None
    scopes = contextlib.ExitStack()
    if args.trace is not None:
        if args.trace.suffix == ".jsonl":
            trace_sink = JsonlSink(args.trace)
        else:
            trace_sink = ChromeTraceSink()
    if args.metrics is not None:
        from repro.metrics import MetricRegistry, MetricsSink

        registry = MetricRegistry()
        scopes.enter_context(
            use_tracer(Tracer(MetricsSink(registry, forward=trace_sink)))
        )
    elif trace_sink is not None:
        scopes.enter_context(use_tracer(Tracer(trace_sink)))
    if args.audit is not None:
        from repro.metrics import AuditJournal, use_audit

        audit_journal = AuditJournal(args.audit)
        scopes.enter_context(use_audit(audit_journal))
    if plan is not None:
        # constructed after the tracer/metrics/audit scopes: the
        # injector caches those ambients at build time
        from repro.faults import FaultInjector, use_faults

        scopes.enter_context(use_faults(FaultInjector(plan)))
        print(
            f"[faults: {len(plan)} event(s), kinds "
            f"{', '.join(plan.kinds) or 'none'}; cell cache bypassed]",
            file=sys.stderr,
        )

    engine = _build_engine(args)
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
    try:
        with scopes:
            with use_engine(engine):
                if profiler is not None:
                    profiler.enable()
                try:
                    if suite is not None:
                        print(
                            _run_spec_suite(suite, overrides, args.output)
                        )
                        print()
                    else:
                        for name in names:
                            print(_run_one(name, overrides, args.output))
                            print()
                finally:
                    if profiler is not None:
                        profiler.disable()
                engine.journal.summary(jobs=args.jobs, experiments=names)
    finally:
        if audit_journal is not None:
            audit_journal.close()
        if trace_sink is not None:
            trace_sink.close()
        engine.close()
    if profiler is not None:
        import io
        import pstats

        profiler.dump_stats(args.profile)
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats(
            "cumulative"
        ).print_stats(12)
        print(buf.getvalue(), file=sys.stderr)
        print(f"[profile -> {args.profile}]")
    if isinstance(trace_sink, ChromeTraceSink):
        path = trace_sink.write(args.trace)
        print(f"[trace: {len(trace_sink.records)} records -> {path}]")
    elif trace_sink is not None:
        print(f"[trace -> {args.trace}]")
    if registry is not None:
        registry.report().write(args.metrics)
        print(f"[metrics report -> {args.metrics}]")
    if audit_journal is not None:
        n_dec = sum(1 for r in audit_journal.records if r.kind == "decision")
        print(f"[audit: {n_dec} decisions -> {args.audit}]")
    return 0
