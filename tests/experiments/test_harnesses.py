"""Tests for the experiment harnesses (quick configurations).

These verify that each harness runs, renders, and — where cheap —
reproduces the paper's qualitative shape. The full-fidelity shapes are
asserted by the benchmark suite, which uses paper-scale parameters.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig1,
    run_fig2,
    run_fig4,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
)
from repro.experiments.fig3 import _collect, case_specs
from repro.experiments.runner import build_controller, improvement, run_specs
from repro.power.rapl import CapMode
from repro.scenario import JobParams, ScenarioSpec
from repro.util.stats import percent_improvement
from repro.workloads import JobConfig


# ------------------------------------------------------------- runner
def test_build_controller_all_names():
    cfg = JobConfig(analyses=("vacf",), dim=16, n_nodes=8, seed=1)
    for name in ("static", "seesaw", "time-aware", "power-aware"):
        ctl = build_controller(name, cfg)
        assert ctl.n_sim == 4
    with pytest.raises(ValueError):
        build_controller("bogus", cfg)


def _paired(approach, job, repeats=1):
    return ScenarioSpec(
        name="t",
        approach=approach,
        job=job,
        baseline_sim_share=0.5,
        repeats=repeats,
    )


def test_paired_improvement_static_vs_itself_is_zero():
    job = JobParams(
        analyses=("vacf",), dim=16, n_nodes=8, seed=1, n_verlet_steps=20
    )
    spec = _paired("static", job)
    assert improvement(spec, run_specs([spec])[0]) == pytest.approx(0.0)


def test_median_improvement_uses_multiple_runs():
    job = JobParams(
        analyses=("full_msd",), dim=16, n_nodes=8, seed=1, n_verlet_steps=30
    )
    singles = []
    for i in range(3):
        # one managed run and its static twin, submitted on their own
        (managed,), (static,) = run_specs(
            [
                ScenarioSpec(
                    name="m", approach="seesaw", job=job, run_index=i
                ),
                ScenarioSpec(
                    name="s",
                    approach="static",
                    job=job,
                    run_index=i,
                    controller={"sim_share": 0.5},
                ),
            ]
        )
        singles.append(
            percent_improvement(managed.total_time_s, static.total_time_s)
        )
    spec = _paired("seesaw", job, repeats=3)
    med = improvement(spec, run_specs([spec])[0])
    assert med == pytest.approx(float(np.median(singles)))


def test_improvement_rejects_an_unpaired_spec():
    spec = ScenarioSpec(name="plain", job=JobParams(n_nodes=8))
    with pytest.raises(ValueError, match="not paired"):
        improvement(spec, [])


# ------------------------------------------------------------- figures
def test_fig1_trace_shows_idle_plateau():
    res = run_fig1(analyses=("vacf",), dim=16, n_verlet_steps=20)
    # the low-demand analysis idles near the spin-wait level (~105 W)
    assert 95.0 < res.ana_idle_watts < 110.0
    assert "analysis" in res.render()


def test_fig2_matches_paper_numbers():
    res = run_fig2()
    assert res.finish_time_s == pytest.approx(77.1, abs=0.2)
    assert res.blue_power_w + res.red_power_w == pytest.approx(210.0)


def test_fig3_runner_structure():
    cases = (("VACF (dim 16)", ("vacf",), 16),)
    res = _collect(
        case_specs("fig3", cases),
        "test",
        n_runs=1,
        n_verlet_steps=30,
        base_seed=1,
    )
    assert len(res.rows) == 1
    imp = res.improvement("VACF (dim 16)", 128, "seesaw")
    assert isinstance(imp, float)
    assert "seesaw" not in res.render() or True  # render must not crash
    res.render()


def test_fig4_quick_run_shapes():
    res = run_fig4(n_verlet_steps=60)
    # SeeSAw gives the analysis more power (Fig. 4a)
    sim_cap, ana_cap = res.seesaw.settled_caps(tail=20)
    assert ana_cap > sim_cap
    # time-aware locks the other way (Fig. 4b)
    sim_t, ana_t = res.time_aware.settled_caps(tail=20)
    assert sim_t > ana_t
    res.render()


def test_fig7_all_starts_positive():
    res = run_fig7(n_runs=1, n_verlet_steps=80)
    assert len(res.improvements) == 3
    for label, imp in res.improvements.items():
        assert imp > -2.0, label
    res.render()


def test_fig8_diminishing_returns():
    res = run_fig8(caps=(110.0, 180.0), n_runs=1, n_verlet_steps=80)
    assert res.improvements[110.0] > res.improvements[180.0]
    assert res.best_cap == 110.0
    res.render()


def test_fig9_overhead_small_and_scaling():
    res = run_fig9(n_verlet_steps=20)
    pct128, ovh128, _ = res.relative[128]
    pct1024, ovh1024, _ = res.relative[1024]
    assert ovh1024 > ovh128  # absolute overhead grows with nodes
    assert pct128 < 0.01  # "negligible overhead": < 1 % of the interval
    assert pct1024 < 0.01
    assert all(d > 0.01 for d in res.absolute.values())  # RAPL 10 ms floor
    res.render()


def test_summary_quick():
    from repro.experiments import run_summary

    res = run_summary(n_runs=1, n_verlet_steps=80)
    assert len(res.claims) == 12
    rendered = res.render()
    assert "PASS" in rendered
    # the core direction claims must hold even in the quick config
    by_claim = {c.claim: c for c in res.claims}
    assert by_claim["power-aware loses on full MSD"].ok
    assert by_claim["SeeSAw gives analysis more power on MSD"].ok


def test_fig5_quick_shapes():
    from repro.experiments import run_fig5

    res = run_fig5(n_verlet_steps=40)
    # time-aware pins the analysis near delta_min at scale
    _, ana_cap = res.time_aware.settled_caps(tail=10)
    assert ana_cap < 104.0
    # SeeSAw's allocated sim power at 128 nodes stays near the split
    sim128, _ = res.seesaw_at_128.settled_caps(tail=10)
    assert 98.0 <= sim128 <= 120.0
    res.render()


def test_fig6_quick_grid():
    from repro.experiments import run_fig6

    res = run_fig6(
        j_values=(1, 10), w_values=(1, 2), n_runs=1, n_verlet_steps=60
    )
    assert (1, 1) in res.grid and (10, 2) in res.grid
    rendered = res.render()
    assert "w=1" in rendered and "j=10" in rendered


def test_fig6_window_longer_than_run_skipped():
    from repro.experiments import run_fig6

    res = run_fig6(
        j_values=(10,), w_values=(1, 50), n_runs=1, n_verlet_steps=60
    )
    assert (10, 1) in res.grid
    assert (10, 50) not in res.grid  # only 6 syncs available
    assert "-" in res.render()


# ------------------------------------------------------------- tables
def test_table1_caps_increase_variability():
    res = run_table1(n_runs=4, dims=(36,), n_verlet_steps=60)
    run_none = res.variability(CapMode.NONE, 36, "run-to-run")
    run_ls = res.variability(CapMode.LONG_SHORT, 36, "run-to-run")
    assert run_ls > run_none
    res.render()


def test_table2_structure():
    res = run_table2(j_values=(4, 20), n_runs=1, n_verlet_steps=80)
    assert set(res.msd_rows) == {4, 20}
    assert set(res.vacf_rows) == {4, 20}
    res.render()


# ------------------------------------------------------------- CLI
def test_cli_list_and_quick_run(capsys):
    from repro.experiments.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "table2" in out

    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "77" in out

    assert main(["run", "nope"]) == 2


def test_cli_output_artifacts(tmp_path, capsys):
    import json

    from repro.experiments.cli import main

    assert main(["run", "fig2", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    txt = (tmp_path / "fig2.txt").read_text()
    assert "210 W" in txt
    data = json.loads((tmp_path / "fig2.json").read_text())
    assert data["finish_time_s"] == pytest.approx(77.14, abs=0.01)
