#!/usr/bin/env python
"""Quickstart: power-manage an in-situ job with SeeSAw in ~30 lines.

Runs the paper's flagship configuration — LAMMPS with the full MSD
analysis on 128 nodes under a 110 W/node budget — once with the static
baseline and once with SeeSAw, then prints the improvement and the
settled power split.

Run:  python examples/quickstart.py
"""

from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController
from repro.workloads import JobConfig, run_job


def main() -> None:
    cfg = JobConfig(
        analyses=("full_msd",),  # the paper's high-demand analysis
        dim=16,  # 1568 * 16^3 ~ 6.4M atoms
        n_nodes=128,  # 64 simulation + 64 analysis nodes
        budget_per_node_w=110.0,  # the paper's power budget
        n_verlet_steps=400,
        seed=2020,
    )

    baseline = run_job(
        cfg, StaticController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
    )
    seesaw = run_job(
        cfg,
        SeeSAwController(
            cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE, window=1
        ),
    )

    gain = 100.0 * (baseline.total_time_s - seesaw.total_time_s) / baseline.total_time_s
    last = seesaw.syncs[-1]
    print(f"static baseline : {baseline.total_time_s:9.1f} s")
    print(f"SeeSAw          : {seesaw.total_time_s:9.1f} s  ({gain:+.2f} %)")
    print(
        f"settled split   : simulation {last['sim_cap_mean_w']:.1f} W/node, "
        f"analysis {last['ana_cap_mean_w']:.1f} W/node"
    )
    print(f"mean slack      : {seesaw.mean_slack * 100:.2f} % of each interval")


if __name__ == "__main__":
    main()
