"""Registries: lookups, metadata, error quality, runner integration."""

import pytest

from repro.experiments.runner import build_controller
from repro.scenario import (
    RegistryError,
    controller_names,
    get_controller,
    get_machine,
    get_workload,
    list_analyses,
)
from repro.workloads import JobConfig


def test_paper_approaches_order():
    assert controller_names() == (
        "static", "power-aware", "time-aware", "seesaw",
    )


def test_all_controllers_registered():
    assert set(controller_names()) == {
        "static",
        "power-aware",
        "time-aware",
        "seesaw",
    }


def test_unknown_controller_is_both_key_and_value_error():
    with pytest.raises(RegistryError, match="unknown approach 'zzz'"):
        get_controller("zzz")
    with pytest.raises(ValueError):
        get_controller("zzz")
    with pytest.raises(KeyError):
        get_controller("zzz")


def test_lookup_error_lists_choices():
    with pytest.raises(
        RegistryError, match="power-aware, seesaw, static, time-aware"
    ):
        get_controller("zzz")


def test_controller_metadata_lists_options():
    info = get_controller("seesaw")
    assert "window" in info.options
    assert "sim_share" in info.options
    static = get_controller("static")
    assert "window" not in static.options


def test_check_kwargs_reports_rejected_names():
    info = get_controller("time-aware")
    with pytest.raises(TypeError, match="rejected option\\(s\\) 'frob'"):
        info.check_kwargs({"frob": 1})
    with pytest.raises(TypeError, match="accepts"):
        info.check_kwargs({"frob": 1})


def test_workload_and_machine_lookup():
    assert get_workload("proxy").__name__ == "run_job"
    assert get_workload("insitu").__name__ == "run_insitu"
    assert get_machine("theta")().name == "theta"
    with pytest.raises(RegistryError):
        get_workload("zzz")
    with pytest.raises(RegistryError):
        get_workload("time-shared")
    with pytest.raises(RegistryError):
        get_machine("zzz")


def test_analyses_registered():
    assert set(list_analyses()) >= {
        "rdf", "vacf", "full_msd", "all", "all_msd",
    }


@pytest.mark.parametrize("name", sorted(controller_names()))
def test_every_registered_controller_builds(name):
    cfg = JobConfig(analyses=("vacf",), dim=16, n_nodes=4, n_verlet_steps=4)
    controller = build_controller(name, cfg)
    assert controller.budget_w == cfg.budget_w


def test_build_controller_reports_rejected_kwargs():
    cfg = JobConfig(analyses=("vacf",), dim=16, n_nodes=4, n_verlet_steps=4)
    with pytest.raises(TypeError, match="rejected option\\(s\\) 'frob'"):
        build_controller("static", cfg, frob=3)


def test_build_controller_soft_defaults_dropped_silently():
    """window/sim_share are soft: controllers without them ignore them
    (the pre-scenario harnesses passed window= to every approach)."""
    cfg = JobConfig(analyses=("vacf",), dim=16, n_nodes=4, n_verlet_steps=4)
    controller = build_controller("static", cfg, window=3, sim_share=0.4)
    assert controller.sim_share == 0.4
    assert not hasattr(controller, "window")


def test_non_default_controller_runs_a_small_job():
    """A registered approach other than the default drives a job."""
    from repro.experiments.runner import run_specs
    from repro.scenario import JobParams, ScenarioSpec

    spec = ScenarioSpec(
        name="time-aware",
        approach="time-aware",
        job=JobParams(analyses=("vacf",), dim=16, n_nodes=4, n_verlet_steps=6),
    )
    (res,) = run_specs([spec])[0]
    assert res.total_time_s > 0


IMPORT_BUDGET_PROBE = """
import json, sys
import repro.campaign, repro.core, repro.experiments.cli, repro.workloads
from repro.scenario import load_suite, validate_spec

problems = [p for spec in load_suite("fig3a") for p in validate_spec(spec)]
heavy = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy"
    or m == "repro.md" or m.startswith(("repro.md.", "repro.insitu"))
)
from repro.scenario import get_workload

print(json.dumps({
    "problems": problems,
    "heavy": heavy,
    "insitu": get_workload("insitu").__module__ + ":" + get_workload("insitu").__name__,
}))
"""


def test_import_budget_proxy_paths_load_no_md_or_scipy():
    """The CLI, campaign, controllers and workloads, plus validating a
    proxy suite, stay clear of the MD stack; a lookup of the in-situ
    workload still resolves it."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["problems"] == []
    assert report["heavy"] == []
    assert report["insitu"] == "repro.insitu.coupler:run_insitu"
