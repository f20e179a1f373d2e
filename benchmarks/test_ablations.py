"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these probe *why* SeeSAw is built the way it is:

* **energy vs time-only feedback** (Eq. 1): the paper argues energy is
  the right metric; the ablation runs SeeSAw with ``alpha = 1/T``.
* **EWMA damping** (Eqs. 3-4): guard against noise/anomalies; the
  ablation jumps straight to each round's optimum.
* **measurement quality for the time-aware balancer**: the paper's
  central thesis is that *developer knowledge* (instrumented pre-sync
  times) beats system-level inference. Giving the GEOPM-style balancer
  a perfect, instrumented signal (no wait-attribution leak) largely
  repairs its wrong-direction failure on full MSD — evidence the
  failure is the measurement, not only the metric.
"""

import numpy as np

from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController, TimeAwareController
from repro.power.rapl import CapMode
from repro.workloads import JobConfig, run_job
from repro.workloads import lammps_proxy


def improvement(cfg, controller):
    base = run_job(
        cfg, StaticController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
    ).total_time_s
    managed = run_job(cfg, controller).total_time_s
    return 100.0 * (base - managed) / base


def seesaw(cfg, **kw):
    return SeeSAwController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE, **kw)


def test_ablation_energy_vs_time_feedback(benchmark):
    """Energy feedback is at least as good as time-only on every
    workload, and the two *differ* where power utilization differs."""

    def run():
        out = {}
        for label, analyses, dim in (
            ("msd", ("full_msd",), 16),
            ("vacf", ("vacf",), 36),
            ("all", ("all",), 36),
        ):
            cfg = JobConfig(
                analyses=analyses,
                dim=dim,
                n_nodes=128,
                n_verlet_steps=300,
                seed=21,
            )
            out[label] = (
                improvement(cfg, seesaw(cfg)),
                improvement(cfg, seesaw(cfg, feedback="time")),
            )
        return out

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for label, (energy, time_only) in out.items():
        print(f"{label:6s} energy {energy:+6.2f}%   time-only {time_only:+6.2f}%")
        assert energy >= time_only - 1.0, label
    # on at least one workload the metrics lead to different outcomes
    assert any(abs(e - t) > 0.3 for e, t in out.values())


def test_ablation_ewma_damping_under_noise(benchmark):
    """Without the EWMA, SeeSAw chases every noisy window under the
    noisy LONG_SHORT enforcement; with it, allocations are steadier."""

    def run():
        cfg = JobConfig(
            analyses=("full_msd",),
            dim=16,
            n_nodes=128,
            n_verlet_steps=300,
            cap_mode=CapMode.LONG_SHORT,
            seed=33,
        )
        res_damped = run_job(cfg, seesaw(cfg))
        res_raw = run_job(cfg, seesaw(cfg, damping="none"))

        def churn(res):
            caps = res.syncs["sim_cap_mean_w"][10:]
            return float(np.abs(np.diff(caps)).mean())

        return churn(res_damped), churn(res_raw)

    churn_damped, churn_raw = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    print(f"\nallocation churn: damped {churn_damped:.3f} W/step, "
          f"raw {churn_raw:.3f} W/step")
    assert churn_damped < churn_raw


def test_ablation_time_aware_with_instrumented_signal(benchmark, monkeypatch):
    """The GEOPM-style balancer fed *instrumented* (leak-free) times
    avoids the Fig. 4b wrong-direction lock on full MSD — supporting
    the paper's developer-knowledge thesis."""

    def run():
        cfg = JobConfig(
            analyses=("full_msd",),
            dim=16,
            n_nodes=128,
            n_verlet_steps=300,
            seed=42,
        )
        ta = TimeAwareController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
        imp_system = improvement(cfg, ta)

        monkeypatch.setattr(
            lammps_proxy, "attribution_leak", lambda n: (0.0, 0.0)
        )
        ta2 = TimeAwareController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
        imp_instrumented = improvement(cfg, ta2)
        return imp_system, imp_instrumented

    imp_system, imp_instrumented = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    print(f"\ntime-aware on MSD: system signal {imp_system:+.2f}%, "
          f"instrumented signal {imp_instrumented:+.2f}%")
    assert imp_system < -3.0  # the paper's failure mode
    assert imp_instrumented > imp_system + 3.0  # measurement repairs it
