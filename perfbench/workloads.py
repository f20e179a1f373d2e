"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in
:meth:`Workload.setup` (which ``setup_s`` times, so the program is
imported there and not at module level), runs one fixed unit of work
per :meth:`Workload.run_pass`, and checks every output against the
pins in ``pins.json`` and against its own other passes.

Every workload is one client in a closed loop: the harness submits a
batch, waits for it, then submits the next. All of them run in one
process; only ``fig3b-1024-pool`` starts worker processes (two).

Seed mapping (``--seed 0`` is the default and reproduces the inputs of
the shipped artifacts): the fig3 workloads run fig3's specs with base
seed ``300 + seed`` at run index 0; ``insitu-chaos`` runs job seed
``2020 + seed`` with fault plans sampled from ``seed``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

from perfbench.stats import Outcomes, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"

DEFAULT_SEED = 0
FIG3_BASE_SEED = 300  # fig3's default base seed
INSITU_JOB_SEED = 2020  # InsituConfig's default job seed


def load_pins() -> dict:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


class Workload:
    """One workload: inputs, a pass, and its checks."""

    name = ""
    #: the pins entry this workload's outputs are checked against
    pin_name = ""
    #: worker processes the workload's engine starts
    jobs = 1
    #: a run makes ``floor(seconds / nominal_pass_s)`` passes, so every
    #: run does the same work whatever the load on the machine; about
    #: the measured wall of one pass on a 2-vCPU x86 VM (Xeon, 2.1 GHz)
    nominal_pass_s = 1.0

    def __init__(self, seed: int, work: Path, pins: dict | None = None) -> None:
        self.seed = seed
        self.work = work
        pins = load_pins() if pins is None else pins
        self.pins = pins.get(self.pin_name or self.name, {}).get(str(seed))
        #: per-pass outputs, for the cross-pass determinism check
        self.outputs: list[dict] = []
        #: per-layer facts of the most recent pass
        self.facts: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_pass(self, index: int) -> None:
        """Untimed preparation of pass ``index``, before any tracing."""

    def run_pass(self, index: int, meter) -> list[float]:
        """Run one pass, with ``meter`` (a started :class:`speed.Meter`)
        lapped after each batch; return its latency samples in scaled
        ms."""
        raise NotImplementedError

    def check_pass(self, out: Outcomes, index: int) -> None:
        """Check the outputs of pass ``index`` (after every pass ran)."""
        raise NotImplementedError

    def final_checks(self, out: Outcomes) -> None:
        """Run-level checks after the timed passes."""

    def describe(self) -> str:
        """What one pass and one latency sample are, for the report."""
        return ""

    def _count_cells(self, counts: dict, before: dict) -> None:
        """Cells the engine computed and read from its cache since
        ``before`` (a copy of its journal's counts)."""
        self.facts["campaign.cells_executed"] = counts["misses"] - before.get("misses", 0)
        self.facts["campaign.cache_hits"] = counts["hits"] - before.get("hits", 0)

    def _same_as_first(self, out: Outcomes, index: int, key: str) -> None:
        if index > 0:
            out.record(
                self.outputs[index][key] == self.outputs[0][key],
                f"pass {index} {key} differ from pass 0",
            )


# ---------------------------------------------------------------------
# fig3 (the analytic proxy behind every figure)


def fig3_specs(suite_name: str, seed: int, facts: dict):
    """The suite's paired scenarios at one repeat, seeded for ``seed``."""
    from repro.scenario import load_suite

    t0 = time.perf_counter()
    suite = load_suite(suite_name)
    facts["scenario.load_suite_s"] = time.perf_counter() - t0
    base = FIG3_BASE_SEED + seed
    return [
        replace(spec, repeats=1).with_job(seed=base + spec.extras["seed_offset"])
        for spec in suite.specs
    ]


def paired_cells(specs):
    """``[managed, static, managed, static, ...]`` cells and labels."""
    from repro.campaign import cell_label

    cells = [c for spec in specs for c in spec.to_cells()]
    return cells, [cell_label(c) for c in cells]


def improvement_table(totals: list) -> list[float]:
    """% improvement of each managed cell over its static twin, for
    totals laid out as :func:`paired_cells` lays out cells."""
    from repro.util.stats import percent_improvement

    return [
        percent_improvement(totals[i], totals[i + 1])
        for i in range(0, len(totals), 2)
    ]


def shape_holds(specs, table) -> tuple[bool, str]:
    """fig3's qualitative shape: across the cases, the median SeeSAw
    improvement is positive and the median power-aware one negative."""
    by: dict = {}
    for spec, imp in zip(specs, table):
        by.setdefault(spec.approach, []).append(imp)
    seesaw = statistics.median(by["seesaw"])
    power_aware = statistics.median(by["power-aware"])
    return (
        seesaw > 0 > power_aware,
        f"fig3 shape lost: median SeeSAw {seesaw:+.2f}%, "
        f"power-aware {power_aware:+.2f}%",
    )


def check_cells(out: Outcomes, labels, totals, pins) -> None:
    """One operation per cell: it raised, or its digest is not pinned."""
    for label, value in zip(labels, totals):
        if value is None:
            out.record(False, f"{label}: raised")
        elif pins is None:
            out.record(True)
        else:
            want = pins["cells"].get(label)
            out.record(
                want == digest(value),
                f"{label}: total_time_s {value!r} (digest {digest(value)}) "
                f"!= pinned {want}",
            )


def serial_totals(cells) -> list:
    """``total_time_s`` of ``cells`` on a fresh serial engine."""
    from repro.campaign import CampaignEngine

    return [r.total_time_s for r in CampaignEngine().run_cells(cells)]


def run_batches(engine, batches, labels, meter, lat: list | None, after=None) -> list:
    """Submit each batch and wait for it (one closed-loop client).

    Returns the cells' ``total_time_s`` in order (None where the batch
    raised), laps ``meter`` after each batch (so a batch's latency runs
    from the previous lap), appends that latency in scaled ms to
    ``lat`` and calls ``after()`` once each batch is back.
    """
    totals: list = []
    for batch, names in zip(batches, labels):
        try:
            results = engine.run_cells(batch)
        except Exception as exc:  # a failed batch is counted, not fatal
            results = [None] * len(batch)
            print(f"[perfbench] {names}: {exc!r}", flush=True)
        latency_s = meter.lap()
        if lat is not None:
            lat.append(1e3 * latency_s)
        if after is not None:
            after()
        totals.extend(None if r is None else r.total_time_s for r in results)
    return totals


def singles(cells) -> list:
    return [[c] for c in cells]


class Fig3aSerial(Workload):
    """fig3a's 21 paired scenarios (7 analysis cases x 3 approaches) on
    128 nodes at one repeat: 42 cells, each its own batch, through the
    default serial in-process engine with no cache."""

    name = "fig3a-serial"
    nominal_pass_s = 17.0

    def setup(self) -> None:
        from repro.campaign import get_engine

        self.specs = fig3_specs("fig3a", self.seed, self.facts)
        self.cells, self.labels = paired_cells(self.specs)
        self.engine = get_engine()

    def describe(self) -> str:
        return f"pass = {len(self.cells)} cells; sample = one cell"

    def run_pass(self, index: int, meter) -> list[float]:
        counts = self.engine.journal.counts
        before = dict(counts)
        lat: list[float] = []
        totals = run_batches(
            self.engine, singles(self.cells), singles(self.labels), meter, lat
        )
        self._count_cells(counts, before)
        self.outputs.append({"cells": totals})
        return lat

    def check_pass(self, out: Outcomes, index: int) -> None:
        totals = self.outputs[index]["cells"]
        check_cells(out, self.labels, totals, self.pins)
        if None in totals:
            return
        table = improvement_table(totals)
        self.outputs[index]["table"] = table
        if self.pins is not None:
            out.record(
                digest(*table) == self.pins["table"],
                "improvement table digest differs from its pin",
            )
        out.record(*shape_holds(self.specs, table))
        self._same_as_first(out, index, "cells")

    def final_checks(self, out: Outcomes) -> None:
        if self.pins is None:
            # unpinned seed: the first pair must recompute identically
            out.record(
                serial_totals(self.cells[:2]) == self.outputs[0]["cells"][:2],
                "a recomputed cell differs from the pass",
            )
        if self.seed == DEFAULT_SEED and "table" in self.outputs[0]:
            out.record(*self._matches_artifact())

    def _matches_artifact(self) -> tuple[bool, str]:
        """At the default seed, fig3a with its 3 repeats must equal
        ``artifacts/fig3a.json``, and its repeat-0 cells the pass's."""
        from repro.campaign import CampaignEngine, CellStore, cell_key, use_engine
        from repro.experiments.fig3 import run_fig3a

        store = CellStore(self.work / "artifact-store")
        try:
            with use_engine(CampaignEngine(store=store)):
                got = run_fig3a()
            repeat0 = [store.get(cell_key(c)).total_time_s for c in self.cells]
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        want = json.loads((ROOT / "artifacts" / "fig3a.json").read_text())
        rows = [[label, nodes, imps] for label, nodes, imps in got.rows]
        return (
            rows == want["rows"] and repeat0 == self.outputs[0]["cells"],
            "fig3a at the default seed != artifacts/fig3a.json",
        )


class Fig3bPool(Workload):
    """fig3b's 1024-node scenarios (3 cases x 3 approaches) at one
    repeat, as 2-cell batches (managed + static twin) through
    ``CampaignEngine(jobs=2)`` with a fresh ``CellStore``: a cold pass
    writes the store, a warm pass reads it back. Each pass has its own
    engine, so the pool's workers are reaped, and their CPU time and
    memory counted, when the pass ends. Before its pass (and, for the
    first, in set-up) each engine is started by a throwaway batch of
    two 2-node cells, so worker start-up is never timed and the traced
    pass's workers are forked before the tracer patches anything."""

    name = "fig3b-1024-pool"
    jobs = 2
    #: a pass measures 6-10 s; four passes at 24 s give 36 samples,
    #: enough for a tail (p72) below the maximum
    nominal_pass_s = 6.0

    def setup(self) -> None:
        self.specs = [
            s for s in fig3_specs("fig3b", self.seed, self.facts)
            if s.job.n_nodes == 1024
        ]
        self.cells, self.labels = paired_cells(self.specs)
        self.batches = [self.cells[i : i + 2] for i in range(0, len(self.cells), 2)]
        self.batch_labels = [self.labels[i : i + 2] for i in range(0, len(self.labels), 2)]
        tiny = self.specs[0].with_job(n_nodes=2, n_verlet_steps=4)
        self.warmup_cells, _ = paired_cells([tiny])
        self.engines: dict = {}
        self.prepare_pass(0)

    def describe(self) -> str:
        return (
            f"pass = cold + warm over {len(self.batches)} two-cell "
            "batches; sample = one cold batch"
        )

    def prepare_pass(self, index: int) -> None:
        from repro.campaign import CampaignEngine, CellStore

        if index in self.engines:
            return
        store = CellStore(self.work / f"store-{index}")
        engine = self.engines[index] = CampaignEngine(jobs=self.jobs, store=store)
        engine.run_cells(self.warmup_cells)  # forks the pool's workers

    def run_pass(self, index: int, meter) -> list[float]:
        engine = self.engines.pop(index)
        before = dict(engine.journal.counts)
        lat: list[float] = []
        # the scheduler keeps the stats of its latest pooled batch only
        # (a batch whose static twin is already stored runs in the
        # parent), so collect each new one as it appears; the first
        # entry is the warm-up batch's, dropped below
        pooled: list = [engine.scheduler_stats]

        def collect() -> None:
            stats = engine.scheduler_stats
            if stats is not pooled[-1]:
                pooled.append(stats)

        try:
            cold = run_batches(engine, self.batches, self.batch_labels, meter, lat, collect)
            warm_from = len(meter.scaled)
            warm = run_batches(engine, self.batches, self.batch_labels, meter, None)
            warm_ms = 1e3 * sum(meter.scaled[warm_from:])
        finally:
            engine.close()
            shutil.rmtree(engine.store.root, ignore_errors=True)
        self._count_cells(engine.journal.counts, before)
        del pooled[0]
        self.facts.update(
            {
                "campaign.worker_busy_frac": (
                    sum(w.busy_s for st in pooled for w in st.workers)
                    / sum(st.wall_s * st.n_workers for st in pooled)
                    if pooled
                    else 0.0
                ),
                "warm_pass_ms": warm_ms,
            }
        )
        self.outputs.append({"cold": cold, "warm": warm})
        return lat

    def check_pass(self, out: Outcomes, index: int) -> None:
        cold, warm = self.outputs[index]["cold"], self.outputs[index]["warm"]
        check_cells(out, self.labels, cold, self.pins)
        for label, hot, got in zip(self.labels, cold, warm):
            out.record(
                got is not None and got == hot,
                f"{label}: warm read {got!r} != cold {hot!r}",
            )
        if None in cold:
            return
        if self.pins is not None:
            out.record(
                digest(*improvement_table(cold)) == self.pins["table"],
                "improvement table digest differs from its pin",
            )
        self._same_as_first(out, index, "cold")

    def final_checks(self, out: Outcomes) -> None:
        if self.pins is None:
            # unpinned seed: the pooled passes must equal a serial run
            out.record(
                serial_totals(self.cells) == self.outputs[0]["cold"],
                "pooled results differ from a serial run of the same cells",
            )


class Fig3aObserved(Workload):
    """One fig3a paired scenario (``all``, dim 36, SeeSAw vs static)
    under ``Tracer(MetricsSink(...))`` streaming to a JSONL trace file,
    plus an ``AuditJournal`` file: what ``run --trace --metrics
    --audit`` installs, writing as the proxy computes. The cells are a
    subset of ``fig3a-serial``'s and are checked against its pins."""

    name = "fig3a-observed"
    pin_name = "fig3a-serial"
    nominal_pass_s = 5.5
    SPEC = "fig3a/all-dim36-n128/seesaw"

    def setup(self) -> None:
        from repro.campaign import get_engine

        # imported here, unused, so that set-up time includes them
        from repro.metrics import AuditJournal, MetricRegistry, MetricsSink  # noqa: F401
        from repro.telemetry import JsonlSink, Tracer  # noqa: F401

        spec = next(
            s for s in fig3_specs("fig3a", self.seed, self.facts)
            if s.name == self.SPEC
        )
        self.cells, self.labels = paired_cells([spec])
        self.engine = get_engine()

    def describe(self) -> str:
        return f"pass = {len(self.cells)} observed cells; sample = one cell"

    def run_pass(self, index: int, meter) -> list[float]:
        from repro.metrics import (
            AuditJournal,
            MetricRegistry,
            MetricsSink,
            use_audit,
            use_metrics,
        )
        from repro.telemetry import JsonlSink, Tracer, use_tracer

        where = self.work / f"observed-{index}"
        counts = self.engine.journal.counts
        before = dict(counts)
        registry = MetricRegistry()
        tracer = Tracer(MetricsSink(registry, forward=JsonlSink(where / "trace.jsonl")))
        audit = AuditJournal(where / "audit.jsonl")
        lat: list[float] = []
        try:
            with use_metrics(registry), use_tracer(tracer), use_audit(audit):
                totals = run_batches(
                    self.engine, singles(self.cells), singles(self.labels), meter, lat
                )
            registry.report().write(where / "metrics.json")
        finally:
            tracer.close()
            audit.close()
        self._count_cells(counts, before)
        self.outputs.append({"cells": totals, "dir": where})
        return lat

    def check_pass(self, out: Outcomes, index: int) -> None:
        from repro.metrics.audit import load_journal, replay
        from repro.telemetry.summary import validate_spans

        rec = self.outputs[index]
        where = rec.pop("dir")
        check_cells(out, self.labels, rec["cells"], self.pins)
        data = (where / "trace.jsonl").read_bytes()
        records = load_journal(where / "audit.jsonl")
        result = replay(records)
        out.record(
            result.clean and result.n_replayed > 0,
            f"audit replay: {len(result.mismatches)} mismatches, "
            f"{result.n_replayed} decisions replayed",
        )
        if index == 0:
            # every pass writes the same trace; validating one keeps the
            # run short
            problems = validate_spans([json.loads(line) for line in data.splitlines()])
            out.record(not problems, f"trace spans invalid: {problems[:3]}")
        self.facts.update(
            {
                "telemetry.records": data.count(b"\n"),
                "telemetry.trace_bytes": len(data),
                "metrics.audit.rows": len(records),
            }
        )
        shutil.rmtree(where, ignore_errors=True)
        self._same_as_first(out, index, "cells")

    def final_checks(self, out: Outcomes) -> None:
        if self.pins is None:
            # unpinned seed: observing must not change the results
            out.record(
                serial_totals(self.cells) == self.outputs[0]["cells"],
                "observed cells differ from the same cells unobserved",
            )


# ---------------------------------------------------------------------
# the in-situ path (DES, MPI, PoLiMER, RAPL, MD, analyses, faults)


class InsituChaos(Workload):
    """``run_insitu`` with 4 simulation + 4 analysis ranks and 30 Verlet
    steps, under SeeSAw and static: for each, a clean run and a run
    under a fault plan sampled from the seed over the clean run's
    horizon, as ``run_chaos_matrix`` does, but with every fault kind in
    one plan."""

    name = "insitu-chaos"
    nominal_pass_s = 2.7
    CONTROLLERS = ("seesaw", "static")

    def setup(self) -> None:
        from types import SimpleNamespace

        from repro.insitu import InsituConfig

        # imported here, unused, so that set-up time includes them
        from repro.experiments.runner import build_controller  # noqa: F401
        from repro.faults import FaultInjector, FaultPlan, use_faults  # noqa: F401

        self.cfg = InsituConfig(
            n_sim_ranks=4,
            n_ana_ranks=4,
            n_verlet_steps=30,
            seed=INSITU_JOB_SEED + self.seed,
        )
        self.shape = SimpleNamespace(
            budget_w=self.cfg.world_size * self.cfg.power_cap_w,
            n_sim=self.cfg.n_sim_ranks,
            n_ana=self.cfg.n_ana_ranks,
        )

    def describe(self) -> str:
        return "pass = 4 run_insitu calls; sample = one call"

    def _call(self, name: str, faults, meter, lat: list):
        from repro.experiments.runner import build_controller
        from repro.faults import use_faults
        from repro.insitu import run_insitu

        try:
            with use_faults(faults):
                result = run_insitu(self.cfg, build_controller(name, self.shape))
        except Exception as exc:  # a failed call is counted, not fatal
            result = None
            print(f"[perfbench] {name}: {exc!r}", flush=True)
        lat.append(1e3 * meter.lap())
        return result

    def run_pass(self, index: int, meter) -> list[float]:
        from repro.faults import NULL_FAULTS, FaultInjector, FaultPlan

        lat: list[float] = []
        calls: dict = {}
        for name in self.CONTROLLERS:
            clean = self._call(name, NULL_FAULTS, meter, lat)
            calls[f"{name}/clean"] = clean
            if clean is None:
                calls[f"{name}/faulted"] = None
                continue
            plan = FaultPlan.sample(
                self.seed,
                self.cfg.world_size,
                horizon_s=max(clean.virtual_time_s, 1e-3),
            )
            calls[f"{name}/faulted"] = self._call(name, FaultInjector(plan), meter, lat)
        done = [r for r in calls.values() if r is not None]
        self.facts.update(
            {
                "des.events": sum(r.events_executed for r in done),
                "insitu.replica_hits": sum(r.replica_hits for r in done),
                "insitu.replica_misses": sum(r.replica_misses for r in done),
                "insitu.virtual_time_s": sum(r.virtual_time_s for r in done),
                "faults.events_fired": sum(len(r.fault_events) for r in done),
            }
        )
        self.outputs.append(
            {"calls": {k: summarize_call(r) for k, r in calls.items()}, "raw": calls}
        )
        return lat

    def check_pass(self, out: Outcomes, index: int) -> None:
        rec = self.outputs[index]
        raw = rec.pop("raw")
        gate_failures = 0
        for label, summary in rec["calls"].items():
            problems = chaos_gate(raw[label], self.shape.budget_w)
            if self.pins is not None and summary != self.pins["calls"].get(label):
                problems.append(f"{summary} != pinned {self.pins['calls'].get(label)}")
            gate_failures += bool(problems)
            out.record(not problems, f"{label}: {'; '.join(problems)}")
        self.facts["faults.gate_failures"] = gate_failures
        self._same_as_first(out, index, "calls")


def summarize_call(result) -> dict | None:
    """What ``insitu-chaos`` pins of one call: virtual time, DES events
    and a digest of the fault-marker rows that fired."""
    if result is None:
        return None
    return {
        "virtual_time_s": result.virtual_time_s,
        "events": result.events_executed,
        "fault_log": digest(json.dumps(result.fault_events, sort_keys=True)),
    }


def chaos_gate(result, budget_w: float) -> list[str]:
    """The chaos matrix's gate for a run whose plan mixes timing faults:
    it completed, verified every exchange, and kept within budget."""
    if result is None:
        return ["raised"]
    problems = []
    if result.verification_failures:
        problems.append(f"verification_failures={result.verification_failures}")
    over = sum(
        (entry[1] if isinstance(entry, tuple) else entry).total_w > budget_w + 1e-6
        for entry in result.allocation_log
    )
    if over:
        problems.append(f"{over} allocations over the budget")
    return problems


WORKLOADS = {
    cls.name: cls for cls in (Fig3aSerial, Fig3bPool, InsituChaos, Fig3aObserved)
}
