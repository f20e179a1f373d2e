"""Benchmark regression tracker: capture, baseline, compare, gate.

``repro bench capture`` runs a fixed set of small-but-real benchmark
collectors and writes a ``BENCH_<date>.json`` baseline; ``repro bench
check`` re-runs them and compares against the latest committed baseline
(``benchmarks/baselines/`` in CI). Two classes of metric:

* **gated** — deterministic quantities (seeded cap-sweep improvements,
  virtual runtimes, event counts). These are bit-reproducible, so the
  tolerances only absorb deliberate-but-small algorithmic drift; a real
  behavior change fails the gate and forces a baseline refresh in the
  same PR.
* **informational** (``gate=False``) — wall-clock throughputs and
  overheads. Machine-dependent, reported in the delta table but never
  failing.

This module imports the experiment harness, which imports the core
controllers, which import :mod:`repro.metrics` — so it is deliberately
NOT re-exported from the package ``__init__``; import it as
``repro.metrics.bench``.
"""

from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "BenchMetric",
    "BenchResult",
    "Delta",
    "capture",
    "compare",
    "latest_baseline",
    "load",
    "render_markdown",
    "render_text",
    "save",
]

SCHEMA_VERSION = 1

#: two cap points from the Fig. 8 sweep: one in the high-gain band,
#: one where gains have faded (the shape the paper's §VII-D predicts)
_FIG8_CAPS = (110.0, 140.0)


@dataclass
class BenchMetric:
    """One benchmarked quantity with its regression policy."""

    value: float
    unit: str
    #: "higher" (is better), "lower" (is better), or "equal" (must not
    #: move in either direction)
    direction: str = "equal"
    tol_abs: float = 0.0
    tol_pct: float = 0.0
    #: gated metrics fail the check; informational ones only report
    gate: bool = True


@dataclass
class BenchResult:
    """A captured benchmark run (what a ``BENCH_*.json`` file holds)."""

    schema: int = SCHEMA_VERSION
    captured_at: str = ""
    metrics: dict = field(default_factory=dict)  # name -> BenchMetric

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "captured_at": self.captured_at,
            "metrics": {k: asdict(m) for k, m in sorted(self.metrics.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "BenchResult":
        return cls(
            schema=data.get("schema", 1),
            captured_at=data.get("captured_at", ""),
            metrics={
                name: BenchMetric(**m)
                for name, m in data.get("metrics", {}).items()
            },
        )


# ---------------------------------------------------------------------------
# collectors


def _collect_fig8(metrics: dict) -> None:
    """Seeded cap-sweep improvements: the repo's headline numbers."""
    from repro.experiments.runner import paired_improvement
    from repro.workloads import JobConfig

    for cap in _FIG8_CAPS:
        cfg = JobConfig(
            analyses=("all_msd",),
            dim=16,
            n_nodes=128,
            n_verlet_steps=60,
            budget_per_node_w=cap,
            seed=88,
        )
        imp = paired_improvement("seesaw", cfg)
        metrics[f"fig8.cap{cap:.0f}.improvement_pct"] = BenchMetric(
            value=imp,
            unit="pct",
            direction="higher",
            tol_abs=0.25,
        )


def _collect_proxy_job(metrics: dict) -> None:
    """A small managed proxy job: virtual runtime is deterministic;
    wall time gives an events-per-second figure."""
    from repro.experiments.runner import build_controller
    from repro.workloads import JobConfig, run_job

    cfg = JobConfig(n_nodes=8, n_verlet_steps=40, seed=7)
    t0 = time.perf_counter()
    result = run_job(cfg, build_controller("seesaw", cfg))
    wall = time.perf_counter() - t0
    metrics["job8.seesaw.virtual_time_s"] = BenchMetric(
        value=result.total_time_s,
        unit="s",
        direction="equal",
        tol_pct=0.01,
    )
    metrics["job8.seesaw.wall_s"] = BenchMetric(
        value=wall, unit="s", direction="lower", gate=False
    )


def _collect_insitu(metrics: dict) -> None:
    """The real-computation coupled job at miniature scale."""
    from repro.cluster.node import THETA_NODE
    from repro.core import SeeSAwController
    from repro.insitu.coupler import InsituConfig, run_insitu

    cfg = InsituConfig(
        n_sim_ranks=2, n_ana_ranks=2, dim=1, n_verlet_steps=6, j=1
    )
    controller = SeeSAwController(
        cfg.power_cap_w * cfg.world_size,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )
    t0 = time.perf_counter()
    result = run_insitu(cfg, controller)
    wall = time.perf_counter() - t0
    metrics["insitu.virtual_time_s"] = BenchMetric(
        value=result.virtual_time_s,
        unit="s",
        direction="equal",
        tol_pct=0.01,
    )
    metrics["insitu.wall_s"] = BenchMetric(
        value=wall, unit="s", direction="lower", gate=False
    )


def _collect_insitu_fig2(metrics: dict) -> None:
    """Fig. 2-scale coupled job with the shared-replica fast path on
    and off (informational): same virtual trajectory by construction,
    so the pair of wall times is the measured dedup speedup."""
    from repro.cluster.node import THETA_NODE
    from repro.core import SeeSAwController
    from repro.insitu.coupler import InsituConfig, run_insitu

    def one(shared: bool) -> float:
        cfg = InsituConfig(shared_replica=shared)  # default 4+4, 10 steps
        controller = SeeSAwController(
            cfg.power_cap_w * cfg.world_size,
            cfg.n_sim_ranks,
            cfg.n_ana_ranks,
            THETA_NODE,
        )
        t0 = time.perf_counter()
        run_insitu(cfg, controller)
        return time.perf_counter() - t0

    one(True)  # warm import/jit caches off the clock
    shared_wall = min(one(True) for _ in range(2))
    unshared_wall = min(one(False) for _ in range(2))
    metrics["insitu.fig2.wall_s"] = BenchMetric(
        value=shared_wall, unit="s", direction="lower", gate=False
    )
    metrics["insitu.fig2.unshared.wall_s"] = BenchMetric(
        value=unshared_wall, unit="s", direction="lower", gate=False
    )
    metrics["insitu.fig2.shared_replica_speedup"] = BenchMetric(
        value=unshared_wall / max(shared_wall, 1e-9),
        unit="x",
        direction="higher",
        gate=False,
    )


def _collect_substrate(metrics: dict) -> None:
    """DES micro: event count (gated) and dispatch throughput.

    Throughput is gated as a *floor* with a wide tolerance: the slotted
    dispatch loop is worth >2x over the handle-object engine, so even a
    50% CI-jitter allowance keeps the gate far above the old design.
    Best-of-3 fresh engines absorbs cold-start noise.
    """
    from repro.des.engine import Engine

    n = 50_000

    def one() -> tuple[int, float]:
        engine = Engine()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < n:
                engine.schedule(0.001, tick)

        engine.schedule(0.0, tick)
        t0 = time.perf_counter()
        engine.run()
        return engine.events_executed, time.perf_counter() - t0

    one()  # warm the run loop off the clock
    runs = [one() for _ in range(3)]
    events = runs[0][0]
    wall = min(w for _, w in runs)
    metrics["des.micro.events"] = BenchMetric(
        value=float(events), unit="events", direction="equal"
    )
    metrics["des.micro.events_per_s"] = BenchMetric(
        value=events / max(wall, 1e-9),
        unit="events/s",
        direction="higher",
        tol_pct=50.0,
    )


def _collect_des_churn(metrics: dict) -> None:
    """Cancellation-churn micro: a cap-change-storm shaped load that
    schedules, cancels, and reschedules in waves. The compaction count
    is deterministic (gated); throughput is informational."""
    from repro.des.engine import Engine

    engine = Engine()
    waves = 200
    per_wave = 256
    state = {"wave": 0}

    def storm() -> None:
        state["wave"] += 1
        handles = [
            engine.schedule(1.0 + i * 1e-6, _noop) for i in range(per_wave)
        ]
        # The "cap changed, restart the phase" pattern: cancel nearly
        # everything just scheduled and reschedule a replacement.
        for h in handles[: per_wave - 1]:
            engine.cancel(h)
        if state["wave"] < waves:
            engine.schedule(1e-3, storm)

    engine.schedule(0.0, storm)
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    ops = waves * (2 * per_wave - 1)  # schedules + cancels issued
    metrics["des.churn.compactions"] = BenchMetric(
        value=float(engine.compactions), unit="count", direction="equal"
    )
    metrics["des.churn.ops_per_s"] = BenchMetric(
        value=ops / max(wall, 1e-9),
        unit="ops/s",
        direction="higher",
        gate=False,
    )


def _noop() -> None:
    pass


def _collect_fig5_scale(metrics: dict) -> None:
    """Fig. 5-style managed run at full 1024-node scale: virtual time
    is deterministic (gated); wall time tracks the vectorized power
    path (informational)."""
    from repro.experiments.runner import build_controller
    from repro.workloads import JobConfig, run_job

    cfg = JobConfig(
        analyses=("all",), dim=36, n_nodes=1024, n_verlet_steps=60, seed=17
    )
    run_job(cfg, build_controller("seesaw", cfg))  # warm numpy/caches
    walls = []
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = run_job(cfg, build_controller("seesaw", cfg))
        walls.append(time.perf_counter() - t0)
    metrics["fig5.scale1024.virtual_time_s"] = BenchMetric(
        value=result.total_time_s,
        unit="s",
        direction="equal",
        tol_pct=0.01,
    )
    metrics["fig5.scale1024.wall_s"] = BenchMetric(
        value=min(walls), unit="s", direction="lower", gate=False
    )


def _collect_metrics_overhead(metrics: dict) -> None:
    """Wall-clock cost of running with a live registry + journal
    installed vs bare (informational: the gated property tests pin the
    *results* to be bit-identical; this tracks the speed tax)."""
    from repro.experiments.runner import build_controller
    from repro.metrics.audit import AuditJournal, use_audit
    from repro.metrics.registry import MetricRegistry, use_metrics
    from repro.workloads import JobConfig, run_job

    cfg = JobConfig(n_nodes=8, n_verlet_steps=40, seed=7)

    def bare() -> float:
        t0 = time.perf_counter()
        run_job(cfg, build_controller("seesaw", cfg))
        return time.perf_counter() - t0

    def metered() -> float:
        t0 = time.perf_counter()
        with use_metrics(MetricRegistry()), use_audit(AuditJournal()):
            run_job(cfg, build_controller("seesaw", cfg))
        return time.perf_counter() - t0

    bare()  # warm caches
    t_bare = min(bare() for _ in range(3))
    t_metered = min(metered() for _ in range(3))
    overhead = 100.0 * (t_metered - t_bare) / max(t_bare, 1e-9)
    metrics["metrics.overhead_pct"] = BenchMetric(
        value=overhead, unit="pct", direction="lower", gate=False
    )


def _scaleout_sleep(spec):
    """Sleep-based cell for the scale-out collector: cost tracks the
    spec's Verlet steps exactly, so the gap measured between schedulers
    is pure placement, not compute noise. Module-level: pool-picklable."""
    time.sleep(spec.cfg.n_verlet_steps * 1e-3)
    return spec.cfg.seed


def _collect_campaign_scaleout(metrics: dict) -> None:
    """Work-stealing vs FIFO/static on a skewed sweep (informational:
    wall-clock; the >= 1.3x floor is pinned by the benchmark suite)."""
    from repro.campaign import CampaignEngine, CellSpec
    from repro.workloads import JobConfig

    def specs():
        # 12 light (10 ms) + 4 heavy (120 ms) cells, heavies last
        return [
            CellSpec(
                "seesaw",
                JobConfig(
                    analyses=("vacf",),
                    n_nodes=8,
                    seed=seed,
                    n_verlet_steps=10 if seed <= 12 else 120,
                ),
            )
            for seed in range(1, 17)
        ]

    def sweep_wall(**policy) -> float:
        engine = CampaignEngine(jobs=4, run_fn=_scaleout_sleep, **policy)
        try:
            engine.run_cells(specs()[:4])  # warm the pool off the clock
            t0 = time.perf_counter()
            engine.run_cells(specs())
            return time.perf_counter() - t0
        finally:
            engine.close()

    fifo = sweep_wall(longest_first=False, steal=False, static_chunks=True)
    ws = sweep_wall()
    metrics["campaign.scaleout.ws_wall_s"] = BenchMetric(
        value=ws, unit="s", direction="lower", gate=False
    )
    metrics["campaign.scaleout.fifo_wall_s"] = BenchMetric(
        value=fifo, unit="s", direction="lower", gate=False
    )
    metrics["campaign.scaleout.speedup_x"] = BenchMetric(
        value=fifo / max(ws, 1e-9), unit="x", direction="higher", gate=False
    )


_COLLECTORS = (
    _collect_fig8,
    _collect_proxy_job,
    _collect_insitu,
    _collect_insitu_fig2,
    _collect_substrate,
    _collect_des_churn,
    _collect_fig5_scale,
    _collect_metrics_overhead,
    _collect_campaign_scaleout,
)


def capture(date: str | None = None) -> BenchResult:
    """Run every collector and return the captured result."""
    metrics: dict = {}
    for collector in _COLLECTORS:
        collector(metrics)
    return BenchResult(
        captured_at=date or _dt.date.today().isoformat(),
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# persistence


def save(result: BenchResult, directory: Path | str) -> Path:
    """Write ``BENCH_<captured_at>.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{result.captured_at}.json"
    path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    return path


def load(path: Path | str) -> BenchResult:
    return BenchResult.from_json(json.loads(Path(path).read_text()))


def latest_baseline(directory: Path | str) -> Path | None:
    """Newest ``BENCH_*.json`` in ``directory`` (ISO dates sort
    lexicographically), or None."""
    candidates = sorted(Path(directory).glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


# ---------------------------------------------------------------------------
# comparison


@dataclass
class Delta:
    """One metric's movement against the baseline."""

    name: str
    unit: str
    baseline: float | None
    current: float | None
    gate: bool
    regressed: bool
    note: str = ""

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline


def _tolerance(metric: BenchMetric, reference: float) -> float:
    return max(metric.tol_abs, abs(reference) * metric.tol_pct / 100.0)


def compare(baseline: BenchResult, current: BenchResult) -> list[Delta]:
    """Per-metric deltas; ``regressed`` is only ever True on gated
    metrics. The *baseline's* policy fields (direction/tolerance/gate)
    govern, so tightening a tolerance takes effect with the next
    captured baseline, not retroactively."""
    deltas: list[Delta] = []
    for name, base in sorted(baseline.metrics.items()):
        cur = current.metrics.get(name)
        if cur is None:
            deltas.append(
                Delta(
                    name=name,
                    unit=base.unit,
                    baseline=base.value,
                    current=None,
                    gate=base.gate,
                    regressed=base.gate,
                    note="metric disappeared",
                )
            )
            continue
        tol = _tolerance(base, base.value)
        moved = cur.value - base.value
        if base.direction == "higher":
            bad = moved < -tol
        elif base.direction == "lower":
            bad = moved > tol
        else:
            bad = abs(moved) > tol
        deltas.append(
            Delta(
                name=name,
                unit=base.unit,
                baseline=base.value,
                current=cur.value,
                gate=base.gate,
                regressed=bool(base.gate and bad),
                note=f"beyond tolerance {tol:g}" if base.gate and bad else "",
            )
        )
    for name, cur in sorted(current.metrics.items()):
        if name not in baseline.metrics:
            deltas.append(
                Delta(
                    name=name,
                    unit=cur.unit,
                    baseline=None,
                    current=cur.value,
                    gate=False,
                    regressed=False,
                    note="new metric",
                )
            )
    return deltas


def render_text(deltas: list[Delta]) -> str:
    """Terminal delta table."""
    lines = [
        f"  {'metric':<34} {'baseline':>12} {'current':>12}"
        f" {'delta':>10}  status"
    ]
    for d in deltas:
        base = f"{d.baseline:.4f}" if d.baseline is not None else "-"
        cur = f"{d.current:.4f}" if d.current is not None else "-"
        delta = f"{d.delta:+.4f}" if d.delta is not None else "-"
        status = "REGRESSED" if d.regressed else ("info" if not d.gate else "ok")
        note = f" ({d.note})" if d.note else ""
        lines.append(
            f"  {d.name:<34} {base:>12} {cur:>12} {delta:>10}  {status}{note}"
        )
    return "\n".join(lines)


def render_markdown(deltas: list[Delta]) -> str:
    """GitHub-flavoured delta table for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "### Benchmark regression check",
        "",
        "| metric | unit | baseline | current | delta | status |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for d in deltas:
        base = f"{d.baseline:.4f}" if d.baseline is not None else "—"
        cur = f"{d.current:.4f}" if d.current is not None else "—"
        delta = f"{d.delta:+.4f}" if d.delta is not None else "—"
        if d.regressed:
            status = f"❌ regressed ({d.note})" if d.note else "❌ regressed"
        elif not d.gate:
            status = "ℹ️ informational"
        else:
            status = "✅ ok"
        lines.append(
            f"| `{d.name}` | {d.unit} | {base} | {cur} | {delta} | {status} |"
        )
    return "\n".join(lines) + "\n"
