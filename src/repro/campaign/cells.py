"""Cell specification: the unit of work a campaign schedules.

A cell is one managed run — the paper's atomic measurement: one
``JobConfig`` executed under one approach with one run index. The
harnesses' medians, pairings and sweeps are all compositions of cells,
which makes the cell the natural unit for parallel fan-out and
content-addressed caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workloads import JobConfig, JobResult

__all__ = ["CellSpec", "cell_label", "cell_units", "run_cell"]


@dataclass(frozen=True)
class CellSpec:
    """One managed run: approach × job config × run index.

    ``controller_kwargs`` are forwarded to
    :func:`repro.experiments.runner.build_controller` (e.g. ``window``,
    ``sim_share``); they are part of the cell's identity and therefore
    of its cache key.
    """

    approach: str
    cfg: JobConfig
    run_index: int = 0
    controller_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.run_index < 0:
            raise ValueError("run_index must be >= 0")


def cell_label(spec: CellSpec) -> str:
    """Compact human-readable label for trace spans and progress lines."""
    cfg = spec.cfg
    return (
        f"{spec.approach}/{'+'.join(cfg.analyses)}"
        f"/d{cfg.dim}/n{cfg.n_nodes}/s{cfg.seed}/r{spec.run_index}"
    )


def cell_units(spec: CellSpec) -> float:
    """A-priori relative cost of a cell, in abstract units.

    The pool dispatches the most units first, and its ETA scales the
    remaining units by the busy seconds per unit of the batch's
    completed cells. Cost scales with the simulated work: Verlet steps
    dominate, with node count and analysis fan-out as secondary
    factors.
    """
    cfg = spec.cfg
    return (
        float(cfg.n_verlet_steps)
        * (1.0 + 0.25 * len(cfg.analyses))
        * (1.0 + cfg.n_nodes / 256.0)
    )


def run_cell(spec: CellSpec) -> JobResult:
    """Execute one cell. Pure: the result depends only on ``spec``.

    Runs in pool workers and in-process alike; determinism comes from
    the job's name-addressed RNG streams, which derive entirely from
    ``cfg.seed`` and ``run_index``.
    """
    # imported lazily: repro.experiments.runner submits through this
    # package, so a module-level import would be circular
    from repro.experiments.runner import build_controller
    from repro.workloads import run_job

    controller = build_controller(
        spec.approach, spec.cfg, **spec.controller_kwargs
    )
    return run_job(spec.cfg, controller, run_index=spec.run_index)
