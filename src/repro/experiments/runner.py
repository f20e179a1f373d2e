"""Shared experiment machinery: controller factories, paired runs,
medians.

The paper's measurement protocol (§VII-A): each data point is the
median of 3 runs, and every managed run is paired with a static
baseline inside the same job — identical rank placement — so that
job-to-job allocation variability cancels. We reproduce that pairing by
seeding the managed run and its baseline with the same job seed.

Every run is submitted as a *cell* through the ambient campaign engine
(:mod:`repro.campaign`): by default that is an in-process serial
engine with behaviour identical to calling :func:`repro.workloads
.run_job` directly, but under ``use_engine`` (what the CLI's
``--jobs/--cache/--journal`` flags install) the same cells fan out
across worker processes and hit the content-addressed result cache.
"""

from __future__ import annotations

from repro.campaign import CellSpec, get_engine
from repro.cluster.node import THETA_NODE, NodeSpec
from repro.core import PowerController
from repro.scenario.registry import get_controller
from repro.util.stats import median, percent_improvement
from repro.workloads import JobConfig, JobResult

__all__ = [
    "build_controller",
    "median_improvement",
    "paired_improvement",
    "run_managed",
    "run_scenario",
    "scenario_improvement",
]

def build_controller(
    name: str,
    cfg: JobConfig,
    node: NodeSpec = THETA_NODE,
    window: int = 1,
    sim_share: float = 0.5,
    **kwargs,
) -> PowerController:
    """Construct a registered controller sized for ``cfg``.

    ``name`` is looked up in :mod:`repro.scenario.registry`, so every
    registered approach — including the extensions — is constructible
    here. ``window`` and ``sim_share`` are *soft* defaults: they are
    forwarded only to controllers whose constructors take them (the
    time-aware balancer ignores ``window`` by design, §VI-B, and the
    static baseline has no feedback at all). Unknown approaches and
    rejected options raise with the valid choices spelled out.
    """
    info = get_controller(name)
    soft = {"window": window, "sim_share": sim_share}
    merged = {
        k: v for k, v in soft.items() if k in info.options
    }
    merged.update(kwargs)
    info.check_kwargs(merged)
    return info.cls(cfg.budget_w, cfg.n_sim, cfg.n_ana, node, **merged)


def run_managed(
    name: str,
    cfg: JobConfig,
    run_index: int = 0,
    **controller_kwargs,
) -> JobResult:
    """One managed run of ``cfg`` under approach ``name``.

    Submitted through the ambient campaign engine, so it parallelizes
    and caches when one is installed via ``use_engine``.
    """
    cell = CellSpec(name, cfg, run_index, dict(controller_kwargs))
    return get_engine().run_cells([cell])[0]


def _paired_cells(
    name: str,
    cfg: JobConfig,
    run_index: int,
    baseline_sim_share: float,
    controller_kwargs: dict,
) -> tuple[CellSpec, CellSpec]:
    """(managed, baseline) cells for one paired run."""
    return (
        CellSpec(name, cfg, run_index, dict(controller_kwargs)),
        CellSpec(
            "static", cfg, run_index, {"sim_share": baseline_sim_share}
        ),
    )


def paired_improvement(
    name: str,
    cfg: JobConfig,
    run_index: int = 0,
    baseline_sim_share: float = 0.5,
    **controller_kwargs,
) -> float:
    """% runtime improvement of one managed run over its paired static
    baseline (same job seed and run index → same allocation and noise,
    the paper's §VII-A pairing)."""
    managed, baseline = get_engine().run_cells(
        _paired_cells(
            name, cfg, run_index, baseline_sim_share, controller_kwargs
        )
    )
    return percent_improvement(managed.total_time_s, baseline.total_time_s)


def median_improvement(
    name: str,
    cfg: JobConfig,
    n_runs: int = 3,
    baseline_sim_share: float = 0.5,
    **controller_kwargs,
) -> float:
    """Median-of-``n_runs`` improvement (the paper's data points).

    All ``2 * n_runs`` cells of the data point are submitted as one
    batch, so they fan out together under a parallel engine.
    """
    cells: list[CellSpec] = []
    for i in range(n_runs):
        cells.extend(
            _paired_cells(
                name, cfg, i, baseline_sim_share, controller_kwargs
            )
        )
    results = get_engine().run_cells(cells)
    return median(
        percent_improvement(
            results[2 * i].total_time_s, results[2 * i + 1].total_time_s
        )
        for i in range(n_runs)
    )


def run_scenario(spec) -> list[JobResult]:
    """Execute a plain (unpaired) :class:`~repro.scenario.ScenarioSpec`.

    Returns one :class:`JobResult` per repeat, submitted as one batch
    through the ambient engine — cell hashes are identical to the
    equivalent :func:`run_managed` calls, so caches are shared.
    """
    if spec.baseline_sim_share is not None:
        raise ValueError(
            f"scenario {spec.name!r} is paired (baseline_sim_share="
            f"{spec.baseline_sim_share}); use scenario_improvement()"
        )
    return get_engine().run_cells(spec.to_cells())


def scenario_improvement(spec) -> float:
    """Median improvement of a paired scenario (the paper's metric).

    Equivalent to :func:`median_improvement` with the spec's approach,
    job, repeats and baseline share — same cells, same cache keys.
    """
    if spec.baseline_sim_share is None:
        raise ValueError(
            f"scenario {spec.name!r} is not paired; set "
            "baseline_sim_share to measure improvement"
        )
    results = get_engine().run_cells(spec.to_cells())
    return median(
        percent_improvement(
            results[2 * i].total_time_s, results[2 * i + 1].total_time_s
        )
        for i in range(spec.repeats)
    )
