"""Edge-case and failure-injection tests for the proxy job runner."""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.cluster.noise import NoiseConfig
from repro.core import SeeSAwController, StaticController
from repro.power.rapl import CapMode
from repro.workloads import JobConfig, ProxyJobSession, run_job


def controller(cfg, kind="static", **kw):
    cls = {"static": StaticController, "seesaw": SeeSAwController}[kind]
    return cls(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE, **kw)


# ------------------------------------------------------------- sessions
def test_session_stepwise_equals_run():
    cfg = JobConfig(analyses=("vacf",), dim=8, n_nodes=8, n_verlet_steps=20, seed=2)
    s1 = ProxyJobSession(cfg, controller(cfg))
    while not s1.done:
        s1.step()
    s2 = ProxyJobSession(cfg, controller(cfg))
    res2 = s2.run()
    assert s1.t == pytest.approx(res2.total_time_s)


def test_step_after_done_raises():
    cfg = JobConfig(analyses=("vacf",), dim=8, n_nodes=8, n_verlet_steps=4, seed=2)
    s = ProxyJobSession(cfg, controller(cfg))
    s.run()
    with pytest.raises(RuntimeError):
        s.step()


# ------------------------------------------------------------- empty syncs
def test_no_analysis_due_means_no_synchronization():
    """With the only analysis at interval 5, four out of five steps
    have no exchange, no overhead and no controller invocation."""
    cfg = JobConfig(
        analyses=("full_msd",),
        analysis_intervals={"full_msd": 5},
        dim=16,
        n_nodes=8,
        n_verlet_steps=10,
        seed=3,
    )
    ctl = controller(cfg, kind="seesaw")
    res = run_job(cfg, ctl)
    for rec in res.records:
        if rec.step % 5 == 0:
            assert rec.sync_s > 0
            assert rec.ana_work_s > 0
        else:
            assert rec.sync_s == 0.0
            assert rec.overhead_s == 0.0
            assert rec.ana_work_s == 0.0


def test_rare_analysis_does_not_starve_itself():
    """SeeSAw must not react to the empty steps (no measurement is
    generated there), so the analysis keeps a workable budget."""
    cfg = JobConfig(
        analyses=("full_msd",),
        analysis_intervals={"full_msd": 5},
        dim=16,
        n_nodes=8,
        n_verlet_steps=40,
        seed=3,
    )
    res = run_job(cfg, controller(cfg, kind="seesaw"))
    assert res.records[-1].ana_cap_mean_w > THETA_NODE.rapl_min_watts + 2.0


# ------------------------------------------------------------- extremes
def test_minimum_size_job():
    cfg = JobConfig(analyses=("vacf",), dim=1, n_nodes=2, n_verlet_steps=5, seed=4)
    res = run_job(cfg, controller(cfg))
    assert len(res.records) == 5
    assert res.total_time_s > 0


def test_budget_at_machine_minimum():
    cfg = JobConfig(
        analyses=("vacf",),
        dim=8,
        n_nodes=8,
        n_verlet_steps=10,
        budget_per_node_w=98.0,
        seed=4,
    )
    res = run_job(cfg, controller(cfg, kind="seesaw"))
    for rec in res.records:
        assert rec.sim_cap_mean_w >= 98.0 - 1e-9
        assert rec.ana_cap_mean_w >= 98.0 - 1e-9


def test_none_cap_mode_ignores_seesaw_decisions():
    cfg = JobConfig(
        analyses=("full_msd",),
        dim=16,
        n_nodes=8,
        n_verlet_steps=20,
        cap_mode=CapMode.NONE,
        seed=4,
    )
    res = run_job(cfg, controller(cfg, kind="seesaw"))
    # uncapped: every node pinned at TDP regardless of the controller
    for rec in res.records:
        assert rec.sim_cap_mean_w == pytest.approx(THETA_NODE.tdp_watts)


def test_extreme_noise_still_completes():
    noisy = NoiseConfig(
        phase_sigma={m: 0.2 for m in CapMode},
        spike_prob=0.5,
        spike_scale=3.0,
    )
    cfg = JobConfig(
        analyses=("full_msd",),
        dim=16,
        n_nodes=8,
        n_verlet_steps=30,
        noise_config=noisy,
        seed=5,
    )
    res = run_job(cfg, controller(cfg, kind="seesaw"))
    assert res.total_time_s > 0
    assert np.isfinite(res.total_time_s)
    for rec in res.records:
        assert 98.0 - 1e-9 <= rec.sim_cap_mean_w <= 215.0 + 1e-9
