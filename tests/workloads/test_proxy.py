"""Tests for the proxy job runner, including the paper's headline shapes.

The shape tests use short runs (100-200 Verlet steps) and fixed seeds;
they assert *directions and bands*, not exact numbers, so legitimate
re-calibration of the workload constants will not break them as long as
the paper's qualitative story holds.
"""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.core import (
    PowerAwareController,
    SeeSAwController,
    StaticController,
    TimeAwareController,
)
from repro.power.rapl import CapMode
from repro.workloads import JobConfig, run_job


def make_cfg(**kw):
    defaults = dict(
        analyses=("full_msd",),
        dim=16,
        n_nodes=128,
        n_verlet_steps=150,
        seed=42,
    )
    defaults.update(kw)
    return JobConfig(**defaults)


def controller(kind, cfg, **kw):
    cls = {
        "static": StaticController,
        "seesaw": SeeSAwController,
        "time": TimeAwareController,
        "power": PowerAwareController,
    }[kind]
    return cls(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE, **kw)


def improvement(kind, cfg, **kw):
    base = run_job(cfg, controller("static", cfg)).total_time_s
    managed = run_job(cfg, controller(kind, cfg, **kw)).total_time_s
    return 100.0 * (base - managed) / base


# --------------------------------------------------------------- basics
def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(n_nodes=127)  # odd
    with pytest.raises(ValueError):
        make_cfg(j=0)
    with pytest.raises(ValueError):
        make_cfg(analyses=())
    with pytest.raises(ValueError):
        make_cfg(n_nodes=8192)  # larger than Theta


def test_record_count_matches_syncs():
    cfg = make_cfg(n_verlet_steps=40, j=4)
    res = run_job(cfg, controller("static", cfg))
    assert len(res.syncs) == 10


def test_total_time_is_sum_of_intervals():
    cfg = make_cfg(n_verlet_steps=40)
    res = run_job(cfg, controller("static", cfg))
    assert res.total_time_s == pytest.approx(
        sum(res.syncs["interval_s"].tolist())
    )


def test_same_seed_same_run():
    cfg = make_cfg(n_verlet_steps=30)
    a = run_job(cfg, controller("static", cfg))
    b = run_job(cfg, controller("static", cfg))
    assert a.total_time_s == pytest.approx(b.total_time_s)


def test_run_index_varies_within_job():
    cfg = make_cfg(n_verlet_steps=30)
    a = run_job(cfg, controller("static", cfg), run_index=0)
    b = run_job(cfg, controller("static", cfg), run_index=1)
    assert a.total_time_s != b.total_time_s
    # but run-to-run spread is much smaller than a different job
    c = run_job(make_cfg(n_verlet_steps=30, seed=99), controller("static", cfg))
    assert abs(a.total_time_s - b.total_time_s) < abs(
        a.total_time_s - c.total_time_s
    )


def test_controller_shape_checked():
    cfg = make_cfg()
    wrong = StaticController(cfg.budget_w, 10, 10, THETA_NODE)
    with pytest.raises(ValueError):
        run_job(cfg, wrong)


def test_traces_collected_on_request():
    cfg = make_cfg(n_verlet_steps=20, collect_traces=True)
    res = run_job(cfg, controller("static", cfg))
    assert res.sim_trace is not None and len(res.sim_trace) > 0
    assert res.ana_trace.energy() > 0


def test_energy_sane():
    """Partition energy per interval is within the physical envelope."""
    cfg = make_cfg(n_verlet_steps=20)
    res = run_job(cfg, controller("static", cfg))
    s = res.syncs[2:]
    mean_power = s["sim_energy_j"] / s["interval_s"] / cfg.n_sim
    assert ((65.0 <= mean_power) & (mean_power <= 215.0)).all()


def test_mixed_intervals_skip_analyses():
    cfg = make_cfg(
        analyses=("rdf", "full_msd"),
        analysis_intervals={"full_msd": 5},
        n_verlet_steps=20,
    )
    res = run_job(cfg, controller("static", cfg))
    works = res.syncs["ana_work_s"]
    # steps 5, 10, 15, 20 carry MSD too and must be slower
    msd_steps = [works[i] for i in (4, 9, 14, 19)]
    light_steps = [works[i] for i in (0, 2, 5, 7)]
    assert min(msd_steps) > max(light_steps)


# ------------------------------------------------- paper headline shapes
def test_seesaw_beats_static_on_msd():
    cfg = make_cfg()
    assert improvement("seesaw", cfg, window=1) > 1.0


def test_seesaw_assigns_analysis_more_power_on_msd():
    """Fig. 4a: the counter-intuitive allocation."""
    cfg = make_cfg()
    res = run_job(cfg, controller("seesaw", cfg, window=1))
    last = res.syncs[-1]
    assert last["ana_cap_mean_w"] > last["sim_cap_mean_w"]


def test_seesaw_slack_settles_on_msd():
    """Fig. 4a: slack drops to ~1% after settling."""
    cfg = make_cfg(n_verlet_steps=200)
    res = run_job(cfg, controller("seesaw", cfg, window=1))
    tail = res.syncs["slack_norm"][res.syncs["step"] >= 50]
    assert float(np.mean(tail)) < 0.05


def test_time_aware_locks_wrong_direction_on_msd():
    """Fig. 4b: the setup transient baits the balancer to ~120/δ_min
    and it cannot return."""
    cfg = make_cfg(n_verlet_steps=200)
    res = run_job(cfg, controller("time", cfg))
    last = res.syncs[-1]
    assert last["sim_cap_mean_w"] > 115.0
    assert last["ana_cap_mean_w"] < 102.0
    assert improvement("time", cfg) < -3.0


def test_time_aware_competitive_on_low_demand():
    """§VII-B2: time-aware works well with RDF/VACF at 128 nodes."""
    cfg = make_cfg(analyses=("vacf",), dim=36)
    imp = improvement("time", cfg)
    assert imp > 5.0


def test_seesaw_positive_on_low_demand():
    cfg = make_cfg(analyses=("vacf",), dim=36)
    assert improvement("seesaw", cfg, window=1) > 5.0


def test_power_aware_slows_down_everywhere():
    """§VII headline: strictly power-aware hurts in all cases."""
    for analyses, dim in ((("full_msd",), 16), (("vacf",), 36), (("all",), 36)):
        cfg = make_cfg(analyses=analyses, dim=dim)
        assert improvement("power", cfg) < 0.0, analyses


def test_time_aware_degrades_at_scale():
    """§VII-B3: severe degradation at 1024 nodes."""
    cfg = make_cfg(analyses=("all",), dim=48, n_nodes=1024)
    assert improvement("time", cfg) < -5.0


def test_seesaw_positive_at_scale():
    cfg = make_cfg(analyses=("all",), dim=48, n_nodes=1024)
    assert improvement("seesaw", cfg, window=1) > 0.0


def test_seesaw_gains_shrink_with_headroom():
    """Fig. 8: diminishing returns beyond ~140 W."""
    tight = improvement("seesaw", make_cfg(analyses=("all_msd",)), window=1)
    loose = improvement(
        "seesaw",
        make_cfg(analyses=("all_msd",), budget_per_node_w=180.0),
        window=1,
    )
    assert tight > loose
    assert abs(loose) < 2.0


def test_cap_mode_none_runs_unthrottled():
    cfg_capped = make_cfg(n_verlet_steps=20)
    cfg_free = make_cfg(n_verlet_steps=20, cap_mode=CapMode.NONE)
    t_capped = run_job(cfg_capped, controller("static", cfg_capped)).total_time_s
    t_free = run_job(cfg_free, controller("static", cfg_free)).total_time_s
    assert t_free < t_capped
