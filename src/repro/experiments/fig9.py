"""Figure 9: overhead of SeeSAw's power allocation.

Two panels (§VII-E):

* 9a — relative overhead: the allocation's cost (measurement exchange
  + decision + broadcast) as a percentage of each synchronization
  interval, at 128 and 1024 nodes (dim=48, all analyses, w=1, j=1).
  Communication costs grow with node count, but the larger job's longer
  intervals make the *relative* overhead smaller — the paper's stated
  result.
* 9b — absolute duration of a stand-alone SeeSAw invocation across
  power caps; dominated by the measurement collectives plus RAPL's
  ~10 ms actuation, and essentially cap-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.report import format_table, heading
from repro.experiments.runner import run_specs
from repro.scenario import load_suite
from repro.workloads.lammps_proxy import _overhead_s

__all__ = ["Fig9Result", "run_fig9"]


@dataclass
class Fig9Result:
    #: {nodes: (mean overhead %, mean overhead s, mean interval s)}
    relative: dict = field(default_factory=dict)
    #: {cap watts: stand-alone invocation seconds (incl. actuation)}
    absolute: dict = field(default_factory=dict)

    def render(self) -> str:
        rel_rows = [
            (nodes, 100.0 * pct, ovh * 1e3, interval)
            for nodes, (pct, ovh, interval) in self.relative.items()
        ]
        abs_rows = [
            (f"{cap:.0f} W", dur * 1e3) for cap, dur in self.absolute.items()
        ]
        return "\n".join(
            [
                heading("Figure 9a: allocation overhead per synchronization"),
                format_table(
                    ["nodes", "overhead %", "overhead ms", "interval s"],
                    rel_rows,
                    float_fmt="{:.3f}",
                ),
                "",
                heading("Figure 9b: stand-alone SeeSAw invocation duration"),
                format_table(
                    ["power cap", "duration ms"], abs_rows, float_fmt="{:.2f}"
                ),
            ]
        )


def run_fig9(
    node_counts: tuple[int, ...] = (128, 1024),
    caps: tuple[float, ...] = (98.0, 110.0, 130.0, 160.0, 215.0),
    n_verlet_steps: int = 100,
    seed: int = 99,
) -> Fig9Result:
    """Regenerate both overhead panels (specs/fig9.json).

    The shipped suite carries the 9a runs (``extras.panel == "9a"``)
    and the 9b model points (``"9b"``, analytic — nothing executed).
    """
    suite = load_suite("fig9")
    by_panel = {"9a": [], "9b": []}
    for spec in suite:
        by_panel[spec.extras["panel"]].append(spec)
    specs = [
        by_panel["9a"][0].with_job(
            n_nodes=nodes, n_verlet_steps=n_verlet_steps, seed=seed
        )
        for nodes in node_counts
    ]
    result = Fig9Result()
    for nodes, (res, *_) in zip(node_counts, run_specs(specs)):
        overheads = np.array([r.overhead_s for r in res.records])
        intervals = np.array([r.interval_s for r in res.records])
        result.relative[nodes] = (
            float((overheads / intervals).mean()),
            float(overheads.mean()),
            float(intervals.mean()),
        )
    # 9b: stand-alone loop — the collective exchange + decision cost
    # plus the RAPL actuation latency, across caps (the arithmetic is
    # cap-independent; RAPL's reaction dominates, as on Theta).
    for cap in caps:
        cfg = (
            by_panel["9b"][0]
            .with_job(budget_per_node_w=cap, seed=seed)
            .job.to_job_config()
        )
        result.absolute[cap] = (
            _overhead_s(cfg) + cfg.machine.rapl_actuation_s
        )
    return result
