"""Runner ↔ campaign integration: the harness entry points submit
through the ambient engine, with unchanged numerics."""

import numpy as np
import pytest

from repro.campaign import CampaignEngine, CellStore, use_engine
from repro.experiments.runner import build_controller, improvement, run_specs
from repro.scenario import JobParams, ScenarioSpec
from repro.util.stats import percent_improvement
from repro.workloads import run_job


def _job(**kw):
    base = dict(
        analyses=("full_msd",), dim=16, n_nodes=8, seed=3, n_verlet_steps=20
    )
    base.update(kw)
    return JobParams(**base)


def _median_improvement(approach, job, n_runs):
    spec = ScenarioSpec(
        name="t",
        approach=approach,
        job=job,
        baseline_sim_share=0.5,
        repeats=n_runs,
    )
    return improvement(spec, run_specs([spec])[0])


def _paired_improvement(approach, job, run_index):
    """One managed run against its static twin at ``run_index``."""
    (managed,), (static,) = run_specs(
        [
            ScenarioSpec(
                name="m", approach=approach, job=job, run_index=run_index
            ),
            ScenarioSpec(
                name="s",
                approach="static",
                job=job,
                run_index=run_index,
                controller={"sim_share": 0.5},
            ),
        ]
    )
    return percent_improvement(managed.total_time_s, static.total_time_s)


def test_run_managed_matches_direct_run_job():
    job = _job()
    cfg = job.to_job_config()
    direct = run_job(cfg, build_controller("seesaw", cfg), run_index=1)
    spec = ScenarioSpec(name="t", approach="seesaw", job=job, run_index=1)
    (via_engine,) = run_specs([spec])[0]
    assert via_engine == direct


def test_median_improvement_parallel_matches_serial():
    """A campaign at --jobs 4 produces numerically identical metrics to
    the serial loop."""
    job = _job()
    serial = _median_improvement("seesaw", job, n_runs=3)
    with use_engine(CampaignEngine(jobs=4)):
        parallel = _median_improvement("seesaw", job, n_runs=3)
    assert parallel == serial


def test_paired_improvement_parallel_matches_serial():
    job = _job(analyses=("vacf",))
    serial = _paired_improvement("time-aware", job, run_index=2)
    with use_engine(CampaignEngine(jobs=2)):
        parallel = _paired_improvement("time-aware", job, run_index=2)
    assert parallel == serial


def test_cached_median_is_identical_and_all_hits(tmp_path):
    job = _job()
    store = CellStore(tmp_path)
    with use_engine(CampaignEngine(store=store)):
        cold = _median_improvement("seesaw", job, n_runs=2)
    warm_engine = CampaignEngine(store=store)
    with use_engine(warm_engine):
        warm = _median_improvement("seesaw", job, n_runs=2)
    assert warm == cold
    assert warm_engine.journal.all_hits


def test_engine_scope_restored_after_use_engine():
    from repro.campaign.executor import get_engine

    outer = get_engine()
    with use_engine(CampaignEngine(jobs=2)) as inner:
        assert get_engine() is inner
    assert get_engine() is outer


def test_median_still_median_of_paired_runs():
    # the batched submission must not change the statistic itself
    job = _job()
    singles = [
        _paired_improvement("seesaw", job, run_index=i) for i in range(3)
    ]
    med = _median_improvement("seesaw", job, n_runs=3)
    assert med == pytest.approx(float(np.median(singles)))
