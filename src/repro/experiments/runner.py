"""Shared experiment machinery: controller factories and the one
submission path.

The paper's measurement protocol (§VII-A): each data point is the
median of 3 runs, and every managed run is paired with a static
baseline inside the same job — identical rank placement — so that
job-to-job allocation variability cancels. We reproduce that pairing by
seeding the managed run and its baseline with the same job seed.

A harness builds every :class:`~repro.scenario.ScenarioSpec` it needs,
hands them to :func:`run_specs` once, and folds the results (paired
ones through :func:`improvement`). The specs' cells go to the ambient
campaign engine (:mod:`repro.campaign`) as one batch, so a baseline
that several approaches share is executed once, and under ``use_engine``
(what the CLI's ``--jobs/--cache/--journal`` flags install) the whole
experiment fans out across worker processes and hits the
content-addressed result cache.
"""

from __future__ import annotations

from itertools import islice

from repro.campaign import get_engine
from repro.cluster.node import THETA_NODE, NodeSpec
from repro.core import PowerController
from repro.scenario.registry import get_controller
from repro.util.stats import median, percent_improvement
from repro.workloads import JobConfig, JobResult

__all__ = ["build_controller", "improvement", "run_specs"]


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


def run_specs(specs) -> list[list[JobResult]]:
    """Execute every spec's cells in one batch; one result list per spec.

    The cells are submitted in spec order, each spec's in
    :meth:`~repro.scenario.ScenarioSpec.to_cells` order, so identical
    cells (a baseline shared by several approaches) are deduplicated
    by the engine and a fault-injected run executes them in the same
    order as the specs list them.
    """
    per_spec = [spec.to_cells() for spec in specs]
    flat = get_engine().run_cells([c for cells in per_spec for c in cells])
    results = iter(flat)
    return [list(islice(results, len(cells))) for cells in per_spec]


def improvement(spec, results: list[JobResult]) -> float:
    """Median % improvement of a paired spec's managed runs over their
    static baselines (the paper's metric), from its :func:`run_specs`
    results."""
    if spec.baseline_sim_share is None:
        raise ValueError(
            f"scenario {spec.name!r} is not paired; set "
            "baseline_sim_share to measure improvement"
        )
    return median(
        percent_improvement(
            results[2 * i].total_time_s, results[2 * i + 1].total_time_s
        )
        for i in range(spec.repeats)
    )
