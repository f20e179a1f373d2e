"""Figure 1: power trace exposing periodic simulation↔analysis
synchronization.

The paper's opening figure samples per-node power every 200 ms for a
LAMMPS run with in-situ analysis on separate nodes and shows the
analysis idling near ~105 W between its activity spikes — the unused
power SeeSAw harvests. We run the static baseline with trace collection
on and sample both partitions' mean-node traces at the same period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import heading
from repro.experiments.runner import build_controller
from repro.scenario import get_workload, load_suite
from repro.util.term import sparkline

__all__ = ["Fig1Result", "run_fig1"]


@dataclass
class Fig1Result:
    times_s: np.ndarray
    sim_watts: np.ndarray
    ana_watts: np.ndarray
    sample_period_s: float

    @property
    def ana_idle_watts(self) -> float:
        """Power level of the analysis idle plateau (low quartile)."""
        return float(np.percentile(self.ana_watts, 20))

    @property
    def ana_active_watts(self) -> float:
        return float(np.percentile(self.ana_watts, 90))

    def render(self) -> str:
        lines = [
            heading("Figure 1: partial power trace (static baseline)"),
            f"samples: {len(self.times_s)} at {self.sample_period_s*1e3:.0f} ms",
            f"analysis idle plateau : {self.ana_idle_watts:6.1f} W"
            "   (paper: ~105 W)",
            f"analysis active level : {self.ana_active_watts:6.1f} W",
            f"simulation mean       : {float(self.sim_watts.mean()):6.1f} W",
            "",
            sparkline(self.ana_watts, label="analysis W"),
            sparkline(self.sim_watts, label="simulation W"),
        ]
        return "\n".join(lines)


def run_fig1(
    analyses: tuple[str, ...] = ("full_msd",),
    dim: int = 16,
    n_nodes: int = 128,
    n_verlet_steps: int = 40,
    seed: int = 5,
) -> Fig1Result:
    """Regenerate the Figure 1 trace (first ~10 synchronizations)."""
    spec = load_suite("fig1").specs[0].with_job(
        analyses=tuple(analyses),
        dim=dim,
        n_nodes=n_nodes,
        n_verlet_steps=n_verlet_steps,
        seed=seed,
    )
    cfg = spec.job.to_job_config()
    controller = build_controller(spec.approach, cfg)
    res = get_workload(spec.workload)(cfg, controller)
    period = cfg.machine.sensor_period_s
    from repro.power.trace import sample_trace

    t_sim, w_sim = sample_trace(res.sim_trace, period)
    t_ana, w_ana = sample_trace(res.ana_trace, period)
    n = min(len(t_sim), len(t_ana))
    return Fig1Result(
        times_s=t_sim[:n],
        sim_watts=w_sim[:n],
        ana_watts=w_ana[:n],
        sample_period_s=period,
    )
