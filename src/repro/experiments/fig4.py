"""Figure 4: per-synchronization power allocation and slack for LAMMPS
with full MSD on 128 nodes (dim 16, j=1).

Five panels in the paper:

* 4a — SeeSAw's per-node allocation per step + normalized slack: it
  settles within the first ~20 steps, assigns the analysis more power,
  and brings mean slack (from the 10th step) to ~0.8 %;
* 4b — the time-aware approach moves power the wrong way during the
  simulation's setup transient and cannot return (flattens near
  sim≈120 / ana≈δ_min, slack ~12 %);
* 4c — the power-aware approach fluctuates (slack 0.2–40 %);
* 4d/4e — baseline time and power between the first 10
  synchronizations (~4 s intervals, MSD ≈ simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_table, heading
from repro.experiments.runner import run_specs
from repro.scenario import load_suite
from repro.workloads import JobResult

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class StepSeries:
    """Per-step allocation/slack series for one approach."""

    approach: str
    steps: np.ndarray
    sim_cap_w: np.ndarray
    ana_cap_w: np.ndarray
    slack_norm: np.ndarray
    sim_work_s: np.ndarray
    ana_work_s: np.ndarray
    sim_power_w: np.ndarray
    ana_power_w: np.ndarray

    @classmethod
    def from_result(cls, res: JobResult) -> "StepSeries":
        r = res.records
        return cls(
            approach=res.controller_name,
            steps=np.array([x.step for x in r]),
            sim_cap_w=np.array([x.sim_cap_mean_w for x in r]),
            ana_cap_w=np.array([x.ana_cap_mean_w for x in r]),
            slack_norm=np.array([x.slack_norm for x in r]),
            sim_work_s=np.array([x.sim_work_s for x in r]),
            ana_work_s=np.array([x.ana_work_s for x in r]),
            sim_power_w=np.array([x.sim_power_mean_w for x in r]),
            ana_power_w=np.array([x.ana_power_mean_w for x in r]),
        )

    def mean_slack_from(self, step: int = 10) -> float:
        mask = self.steps >= step
        return float(self.slack_norm[mask].mean())

    def settled_caps(self, tail: int = 50) -> tuple[float, float]:
        return (
            float(self.sim_cap_w[-tail:].mean()),
            float(self.ana_cap_w[-tail:].mean()),
        )


@dataclass
class Fig4Result:
    seesaw: StepSeries
    time_aware: StepSeries
    power_aware: StepSeries
    baseline: StepSeries

    def render(self) -> str:
        rows = []
        for s in (self.seesaw, self.time_aware, self.power_aware):
            sim_cap, ana_cap = s.settled_caps()
            rows.append(
                (
                    s.approach,
                    sim_cap,
                    ana_cap,
                    100.0 * s.mean_slack_from(10),
                    100.0 * float(s.slack_norm.max()),
                )
            )
        base_rows = [
            (
                int(st),
                float(self.baseline.sim_work_s[i]),
                float(self.baseline.ana_work_s[i]),
                float(self.baseline.sim_power_w[i]),
                float(self.baseline.ana_power_w[i]),
            )
            for i, st in enumerate(self.baseline.steps[:10])
        ]
        return "\n".join(
            [
                heading(
                    "Figure 4: power allocation dynamics, LAMMPS+MSD, "
                    "128 nodes, dim=16, j=1"
                ),
                format_table(
                    [
                        "approach",
                        "settled sim W/node",
                        "settled ana W/node",
                        "mean slack % (>=10)",
                        "max slack %",
                    ],
                    rows,
                ),
                "",
                "Baseline (4d/4e): first 10 synchronizations",
                format_table(
                    ["step", "sim time s", "ana time s", "sim W", "ana W"],
                    base_rows,
                ),
            ]
        )


def run_fig4(
    n_verlet_steps: int = 400, seed: int = 42
) -> Fig4Result:
    """Regenerate all Figure 4 panels' data (specs/fig4.json)."""
    suite = load_suite("fig4")
    specs = [
        suite.get(name).with_job(n_verlet_steps=n_verlet_steps, seed=seed)
        for name in ("seesaw", "time-aware", "power-aware", "static")
    ]
    seesaw, time_aware, power_aware, baseline = (
        StepSeries.from_result(results[0]) for results in run_specs(specs)
    )
    return Fig4Result(
        seesaw=seesaw,
        time_aware=time_aware,
        power_aware=power_aware,
        baseline=baseline,
    )
