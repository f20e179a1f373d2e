#!/usr/bin/env python
"""Compare all four power-management strategies across workloads.

Reproduces the spirit of the paper's Figure 3 interactively: for each
workload, run the static baseline and the three managed approaches on
the same job (identical seeds — the paper's pairing), and print the
improvement plus where each controller settled.

Run:  python examples/controller_comparison.py
"""

from repro.cluster.node import THETA_NODE
from repro.core import (
    PowerAwareController,
    SeeSAwController,
    StaticController,
    TimeAwareController,
)
from repro.workloads import JobConfig, run_job

WORKLOADS = [
    ("full MSD, dim 16", ("full_msd",), 16, 128),
    ("VACF, dim 36", ("vacf",), 36, 128),
    ("all analyses, dim 36", ("all",), 36, 128),
    ("all analyses, dim 48, 1024 nodes", ("all",), 48, 1024),
]

CONTROLLERS = {
    "static": StaticController,
    "power-aware": PowerAwareController,
    "time-aware": TimeAwareController,
    "SeeSAw": SeeSAwController,
}


def main() -> None:
    for label, analyses, dim, nodes in WORKLOADS:
        cfg = JobConfig(
            analyses=analyses,
            dim=dim,
            n_nodes=nodes,
            n_verlet_steps=400,
            seed=11,
        )
        print(f"\n=== {label} ({nodes} nodes, 110 W/node budget) ===")
        base_time = None
        for name, cls in CONTROLLERS.items():
            ctl = cls(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
            res = run_job(cfg, ctl)
            last = res.syncs[-1]
            caps = f"{last['sim_cap_mean_w']:.0f}/{last['ana_cap_mean_w']:.0f} W"
            if name == "static":
                base_time = res.total_time_s
                print(
                    f"{name:12s} {res.total_time_s:9.1f} s   (baseline)"
                    f"   caps {caps}"
                )
            else:
                gain = 100.0 * (base_time - res.total_time_s) / base_time
                print(
                    f"{name:12s} {res.total_time_s:9.1f} s   {gain:+6.2f} %"
                    f"   caps {caps}"
                    f"   slack {res.mean_slack * 100:5.1f} %"
                )


if __name__ == "__main__":
    main()
