"""Figure 5: allocated vs measured power at 1024 nodes (all analyses).

Paper observations (§VII-B3):

* 5a — SeeSAw allocates more power to the analysis partition; the
  simulation side stays well below what it received on 128 nodes for
  the same workload (lower utilization at scale);
* 5b — the time-aware approach drives the allocation to δ_min in the
  wrong direction; measured power sits far below the allocated caps and
  the normalized slack is "incidentally low" while performance is
  severely degraded.

We report, per approach, the settled allocated caps, the measured
power, the gap between them, and the mean slack.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.experiments.fig4 import StepSeries
from repro.experiments.report import format_table, heading
from repro.experiments.runner import run_specs
from repro.scenario import load_suite

__all__ = ["Fig5Result", "run_fig5"]


@dataclass
class Fig5Result:
    seesaw: StepSeries
    time_aware: StepSeries
    seesaw_at_128: StepSeries
    baseline_time_s: float
    seesaw_time_s: float
    time_aware_time_s: float

    def render(self) -> str:
        def row(s: StepSeries, total: float):
            sim_cap, ana_cap = s.settled_caps()
            return (
                s.approach,
                sim_cap,
                ana_cap,
                float(s.sim_power_w[-50:].mean()),
                float(s.ana_power_w[-50:].mean()),
                100.0 * s.mean_slack_from(10),
                100.0 * (self.baseline_time_s - total) / self.baseline_time_s,
            )

        sim128, _ = self.seesaw_at_128.settled_caps()
        return "\n".join(
            [
                heading(
                    "Figure 5: allocated vs measured power, 1024 nodes, "
                    "all analyses"
                ),
                format_table(
                    [
                        "approach",
                        "alloc sim W",
                        "alloc ana W",
                        "meas sim W",
                        "meas ana W",
                        "slack %",
                        "improvement %",
                    ],
                    [
                        row(self.seesaw, self.seesaw_time_s),
                        row(self.time_aware, self.time_aware_time_s),
                    ],
                ),
                "",
                f"SeeSAw sim allocation on 128 nodes, same workload: "
                f"{sim128:.1f} W/node (paper: fluctuates 109-115 W)",
            ]
        )


def run_fig5(
    dim: int = 36,
    n_verlet_steps: int = 400,
    seed: int = 17,
) -> Fig5Result:
    """Regenerate Figure 5's comparison (specs/fig5.json)."""
    suite = load_suite("fig5")
    names = ("static-n1024", "seesaw-n1024", "time-aware-n1024", "seesaw-n128")
    specs = [
        suite.get(name).with_job(
            dim=dim, n_verlet_steps=n_verlet_steps, seed=seed
        )
        for name in names
    ]
    baseline, seesaw, time_aware, seesaw128 = (
        results[0] for results in run_specs(specs)
    )
    return Fig5Result(
        seesaw=StepSeries.from_result(seesaw),
        time_aware=StepSeries.from_result(time_aware),
        seesaw_at_128=StepSeries.from_result(seesaw128),
        baseline_time_s=baseline.total_time_s,
        seesaw_time_s=seesaw.total_time_s,
        time_aware_time_s=time_aware.total_time_s,
    )
