"""Bench for the paper's §VIII local-optimum probe, as implemented by
this reproduction.

Our flat SeeSAw does not exhibit the paper's low-demand local optimum
(see EXPERIMENTS.md), so here we verify the probe machinery is at
worst neutral on a standard workload.
"""


from repro.cluster.node import THETA_NODE
from repro.core import (
    ExploringSeeSAwController,
    SeeSAwController,
    StaticController,
)
from repro.workloads import JobConfig, run_job


def improvement(cfg, controller):
    base = run_job(
        cfg, StaticController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
    ).total_time_s
    managed = run_job(cfg, controller).total_time_s
    return 100.0 * (base - managed) / base


def test_exploring_probe_is_safe(benchmark):
    """The local-optima probe must not cost performance when there is
    no local optimum to escape."""

    def run():
        cfg = JobConfig(
            analyses=("full_msd",),
            dim=16,
            n_nodes=128,
            n_verlet_steps=300,
            seed=19,
        )
        flat = improvement(
            cfg,
            SeeSAwController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE),
        )
        probing = improvement(
            cfg,
            ExploringSeeSAwController(
                cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE
            ),
        )
        return flat, probing

    flat, probing = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nflat {flat:+.2f}%   exploring {probing:+.2f}%")
    assert probing > flat - 1.5
