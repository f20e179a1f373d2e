"""Where the traced pass puts its timers, and the per-layer metrics it
reports.

Each entry wraps a layer's public entry point (or, where the layer's
work has no public seam, the function that does it) so that the
traced pass records one span per call. :func:`layer_metrics` turns the
folded spans, the tracer's counts and the workload's own facts into
the per-layer metrics named in ``BENCHMARK.json``. A ``*_s`` span
metric is the span's self time: its duration minus the time of the
traced calls it made.

Pool workers are separate processes and are not traced; their share
of ``fig3b-1024-pool`` shows as ``campaign.worker_busy_frac``.
"""

from __future__ import annotations

COLLECTIVES = (
    "barrier", "bcast", "gather", "allgather", "allreduce",
    "reduce", "scatter", "alltoall", "split", "dup",
)
AUDIT_RECORDERS = (
    "record_init", "record_observation", "record_decision",
    "record_hold", "record_fault",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    import repro.campaign.hashing as hashing
    import repro.insitu  # noqa: F401  (binds poli_power_alloc)
    import repro.polimer.api as polimer_api
    import repro.power.execution as execution
    import repro.power.model as power_model
    import repro.workloads as workloads
    import repro.workloads.lammps_proxy as proxy
    from repro.analysis.base import Analysis
    from repro.campaign import CampaignEngine, CellStore
    from repro.cluster.noise import NoiseModel
    from repro.core.controller import PowerController
    from repro.des.engine import Engine
    from repro.md.forces import ForceField
    from repro.md.verlet import VelocityVerlet
    from repro.metrics.audit import AuditJournal
    from repro.metrics.registry import MetricsSink
    from repro.mpi.comm import Communicator
    from repro.power.rapl import RaplDomainArray
    from repro.telemetry.sinks import JsonlSink
    from repro.telemetry.tracer import Tracer as ReproTracer

    def count_cells(args, kwargs):
        tracer.count("campaign.cells_submitted", len(args[1]))

    def count_outermost(span, counter):
        def on_call(args, kwargs):
            if tracer.enclosing() != span:
                tracer.count(counter)

        return on_call

    def count_miss(args, kwargs):
        if tracer.enclosing() == "power.op_cache":
            tracer.count("power.op_cache.misses")

    def count_decision(result):
        # after the span closed: the enclosing span is the caller
        if result is not None and tracer.enclosing() != "core.observe":
            tracer.count("core.decisions")

    tracer.patch_method(CampaignEngine, "run_cells", "campaign.run_cells", on_call=count_cells)
    tracer.patch_function(hashing, "cell_key", "campaign.cell_key")
    tracer.patch_method(CellStore, "get", "campaign.store.get")
    tracer.patch_method(CellStore, "put", "campaign.store.put")

    tracer.patch_function(workloads, "run_job", "proxy.run_job")
    tracer.patch_method(proxy.ProxyJobSession, "step", "proxy.step")
    tracer.patch_method(proxy._Partition, "run_program", "proxy.run_program")
    tracer.patch_function(proxy, "_build_observation", "proxy.build_observation")

    tracer.patch_function(execution, "execute_phase", "power.execute_phase")
    tracer.patch_function(execution, "_operating_point_cached", "power.op_cache")
    tracer.patch_function(
        power_model, "operating_point", "power.operating_point", on_call=count_miss
    )
    tracer.patch_method(RaplDomainArray, "request_caps", "power.request_caps")
    tracer.patch_method(NoiseModel, "phase_factor_pair", "noise.phase_factor_pair")

    for cls in [PowerController, *_subclasses(PowerController)]:
        if "observe" in cls.__dict__:
            tracer.patch_method(
                cls,
                "observe",
                "core.observe",
                on_call=count_outermost("core.observe", "core.observe.calls"),
                on_return=count_decision,
            )

    tracer.patch_method(Engine, "run", "des.run")
    for name in COLLECTIVES:
        tracer.patch_method(
            Communicator,
            name,
            "mpi.collective",
            on_call=count_outermost("mpi.collective", "mpi.collectives"),
        )
    tracer.patch_function(
        polimer_api, "poli_power_alloc", "polimer.power_alloc", generator=True
    )
    tracer.patch_method(VelocityVerlet, "step", "md.verlet.step")
    tracer.patch_method(ForceField, "compute", "md.forces")
    tracer.patch_method(Analysis, "update", "analysis.update")

    tracer.patch_method(JsonlSink, "emit", "telemetry.sink")
    tracer.patch_method(ReproTracer, "emit_many", "telemetry.emit_many")
    tracer.patch_method(MetricsSink, "emit", "metrics.sink")
    for name in AUDIT_RECORDERS:
        tracer.patch_method(AuditJournal, name, "metrics.audit")


def layer_metrics(fold: dict, counts: dict, facts: dict, jobs: int) -> dict:
    """Per-layer metric values of one traced pass (imports excluded)."""

    def calls(name: str) -> int:
        return fold[name][0] if name in fold else 0

    def self_s(*names: str) -> float:
        return float(sum(fold[n][2] for n in names if n in fold))

    lookups = calls("power.op_cache")
    run_cells = calls("campaign.run_cells")
    return {
        "scenario.load_suite_s": facts.get("scenario.load_suite_s", 0.0),
        "campaign.run_cells.calls": run_cells,
        "campaign.batch_cells_mean": (
            counts.get("campaign.cells_submitted", 0) / run_cells if run_cells else 0.0
        ),
        "campaign.cells_executed": facts.get("campaign.cells_executed", 0),
        # cells the parent computed itself although it has a pool
        "campaign.cells_inline": calls("proxy.run_job") if jobs > 1 else 0,
        "campaign.cache_hits": facts.get("campaign.cache_hits", 0),
        "campaign.cell_key_s": self_s("campaign.cell_key"),
        "campaign.store.get_s": self_s("campaign.store.get"),
        "campaign.store.put_s": self_s("campaign.store.put"),
        "campaign.worker_busy_frac": facts.get("campaign.worker_busy_frac", 0.0),
        "campaign.parent_cpu_s": facts["campaign.parent_cpu_s"],
        "proxy.steps": calls("proxy.step"),
        "proxy.step_self_s": self_s("proxy.step"),
        "proxy.run_program_self_s": self_s("proxy.run_program"),
        "proxy.build_observation_s": self_s("proxy.build_observation"),
        "power.execute_phase.calls": calls("power.execute_phase"),
        "power.execute_phase_s": self_s("power.execute_phase"),
        "power.operating_point.calls": calls("power.operating_point"),
        "power.operating_point_s": self_s("power.operating_point"),
        "power.request_caps.calls": calls("power.request_caps"),
        "power.op_cache.lookups": lookups,
        "power.op_cache_hit_ratio": (
            1.0 - counts.get("power.op_cache.misses", 0) / lookups if lookups else 0.0
        ),
        "noise.phase_factor_pair.calls": calls("noise.phase_factor_pair"),
        "noise.phase_factor_pair_s": self_s("noise.phase_factor_pair"),
        "core.observe.calls": counts.get("core.observe.calls", 0),
        "core.decisions": counts.get("core.decisions", 0),
        "core.observe_s": self_s("core.observe"),
        "des.events": facts.get("des.events", 0),
        "des.self_s": self_s("des.run"),
        "mpi.collectives": counts.get("mpi.collectives", 0),
        "mpi.collective_s": self_s("mpi.collective"),
        "polimer.power_alloc.calls": counts.get("polimer.power_alloc.calls", 0),
        "polimer.power_alloc_s": self_s("polimer.power_alloc"),
        "md.verlet.steps": calls("md.verlet.step"),
        "md.verlet.step_s": self_s("md.verlet.step"),
        "md.forces_s": self_s("md.forces"),
        "analysis.updates": calls("analysis.update"),
        "analysis.update_s": self_s("analysis.update"),
        "insitu.replica_hits": facts.get("insitu.replica_hits", 0),
        "insitu.replica_misses": facts.get("insitu.replica_misses", 0),
        "insitu.virtual_time_s": facts.get("insitu.virtual_time_s", 0.0),
        "faults.events_fired": facts.get("faults.events_fired", 0),
        "faults.gate_failures": facts.get("faults.gate_failures", 0),
        "telemetry.records": facts.get("telemetry.records", 0),
        "telemetry.emit_s": self_s("telemetry.sink", "telemetry.emit_many"),
        "telemetry.trace_bytes": facts.get("telemetry.trace_bytes", 0),
        "metrics.sink_s": self_s("metrics.sink"),
        "metrics.audit.rows": facts.get("metrics.audit.rows", 0),
        "metrics.audit_s": self_s("metrics.audit"),
    }


#: every per-layer metric the traced run prints, with its unit, in
#: BENCHMARK.json's order (import.* come from the parent's probe)
PER_LAYER = [
    ("import.total_s", "s"),
    ("import.modules", "count"),
    ("import.scipy_loaded", "flag"),
    ("import.repro_md_loaded", "flag"),
    ("scenario.load_suite_s", "s"),
    ("campaign.run_cells.calls", "count"),
    ("campaign.batch_cells_mean", "cells"),
    ("campaign.cells_executed", "count"),
    ("campaign.cells_inline", "count"),
    ("campaign.cache_hits", "count"),
    ("campaign.cell_key_s", "s"),
    ("campaign.store.get_s", "s"),
    ("campaign.store.put_s", "s"),
    ("campaign.worker_busy_frac", "ratio"),
    ("campaign.parent_cpu_s", "s"),
    ("proxy.steps", "count"),
    ("proxy.step_self_s", "s"),
    ("proxy.run_program_self_s", "s"),
    ("proxy.build_observation_s", "s"),
    ("power.execute_phase.calls", "count"),
    ("power.execute_phase_s", "s"),
    ("power.operating_point.calls", "count"),
    ("power.operating_point_s", "s"),
    ("power.request_caps.calls", "count"),
    ("power.op_cache.lookups", "count"),
    ("power.op_cache_hit_ratio", "ratio"),
    ("noise.phase_factor_pair.calls", "count"),
    ("noise.phase_factor_pair_s", "s"),
    ("core.observe.calls", "count"),
    ("core.decisions", "count"),
    ("core.observe_s", "s"),
    ("des.events", "count"),
    ("des.self_s", "s"),
    ("mpi.collectives", "count"),
    ("mpi.collective_s", "s"),
    ("polimer.power_alloc.calls", "count"),
    ("polimer.power_alloc_s", "s"),
    ("md.verlet.steps", "count"),
    ("md.verlet.step_s", "s"),
    ("md.forces_s", "s"),
    ("analysis.updates", "count"),
    ("analysis.update_s", "s"),
    ("insitu.replica_hits", "count"),
    ("insitu.replica_misses", "count"),
    # simulated seconds: exact, so not a timing
    ("insitu.virtual_time_s", "virtual_s"),
    ("faults.events_fired", "count"),
    ("faults.gate_failures", "count"),
    ("telemetry.records", "count"),
    ("telemetry.emit_s", "s"),
    ("telemetry.trace_bytes", "bytes"),
    ("metrics.sink_s", "s"),
    ("metrics.audit.rows", "count"),
    ("metrics.audit_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]
