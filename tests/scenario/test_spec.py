"""ScenarioSpec: JSON round-trips, hash stability, validation errors."""

import dataclasses
import json

import pytest

from repro.scenario import (
    JobParams,
    ScenarioSpec,
    SpecError,
    load_suite,
    spec_hash,
    specs_dir,
    validate_spec,
)

SHIPPED = sorted(
    p.stem for p in specs_dir().glob("*.json") if p.name != "HASHES.json"
)


def _all_shipped_specs():
    for name in SHIPPED:
        for spec in load_suite(name):
            yield spec


# ------------------------------------------------------------ round-trips
@pytest.mark.parametrize("suite", SHIPPED)
def test_shipped_specs_round_trip(suite):
    """spec -> JSON -> spec is the identity for every shipped scenario."""
    for spec in load_suite(suite):
        clone = ScenarioSpec.from_json(spec.to_json(), where=spec.name)
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)


@pytest.mark.parametrize("suite", SHIPPED)
def test_shipped_specs_serialize_byte_stable(suite):
    """dumps() of a parsed dumps() is byte-identical (canonical form)."""
    for spec in load_suite(suite):
        text = spec.dumps()
        again = ScenarioSpec.from_json(json.loads(text), where=spec.name)
        assert again.dumps() == text


def test_round_trip_preserves_non_defaults():
    spec = ScenarioSpec(
        name="t/custom",
        approach="seesaw",
        controller={"window": 5, "sim_share": 0.25},
        baseline_sim_share=0.6,
        repeats=4,
        run_index=2,
        chaos_seed=11,
        insitu={"n_verlet_steps": 3},
        extras={"note": "x", "nums": [1, 2]},
        job=JobParams(
            analyses=("vacf", "rdf"),
            dim=24,
            n_nodes=256,
            j=10,
            budget_per_node_w=120.0,
            cap_mode="long_short",
            seed=9,
            analysis_intervals={"vacf": 10},
            collect_traces=True,
        ),
    )
    clone = ScenarioSpec.from_json(spec.to_json())
    assert clone == spec
    assert spec_hash(clone) == spec_hash(spec)


def test_hash_ignores_json_key_order():
    spec = load_suite("fig4").specs[0]
    doc = spec.to_json()
    shuffled = json.loads(
        json.dumps(doc, sort_keys=True)  # different key order than to_json
    )
    assert ScenarioSpec.from_json(shuffled) == spec


def test_hash_changes_with_content():
    spec = load_suite("fig4").specs[0]
    assert spec_hash(spec.with_job(seed=spec.job.seed + 1)) != spec_hash(spec)
    assert spec_hash(spec.with_controller(window=9)) != spec_hash(spec)


# ------------------------------------------------------------ strictness
def test_unknown_scenario_key_rejected():
    doc = load_suite("fig4").specs[0].to_json()
    doc["typo_key"] = 1
    with pytest.raises(SpecError, match="typo_key"):
        ScenarioSpec.from_json(doc)


def test_unknown_job_key_rejected():
    doc = load_suite("fig4").specs[0].to_json()
    doc["job"]["n_steps"] = 4
    with pytest.raises(SpecError, match="n_steps"):
        ScenarioSpec.from_json(doc)


def test_missing_name_rejected():
    doc = load_suite("fig4").specs[0].to_json()
    del doc["name"]
    with pytest.raises(SpecError, match="name"):
        ScenarioSpec.from_json(doc)


def test_bool_is_not_a_number():
    with pytest.raises(SpecError, match="number"):
        ScenarioSpec.from_json({"name": "t", "baseline_sim_share": True})
    with pytest.raises(SpecError, match="bool"):
        ScenarioSpec.from_json({"name": "t", "repeats": True})


# ------------------------------------------------------------ validation
def test_validate_ok_for_all_shipped():
    problems = [p for s in _all_shipped_specs() for p in validate_spec(s)]
    assert problems == []


def test_validate_unknown_approach():
    for approach in ("nope", "seesaw-hierarchical"):
        spec = ScenarioSpec(name="t", approach=approach)
        problems = validate_spec(spec)
        assert any("unknown approach" in p for p in problems)


def test_validate_rejected_controller_kwarg_names_alternatives():
    spec = ScenarioSpec(
        name="t", approach="static", controller={"window": 3}
    )
    problems = validate_spec(spec)
    # static has no window option; the message must say what it accepts
    assert any("window" in p and "accepts" in p for p in problems)


def test_validate_infeasible_budget():
    spec = ScenarioSpec(name="t", job=JobParams(budget_per_node_w=20.0))
    problems = validate_spec(spec)
    assert any("20" in p for p in problems)


def test_validate_faults_chaos_exclusive():
    spec = ScenarioSpec(
        name="t", workload="insitu", faults="slowdown@1.0+2.5", chaos_seed=3
    )
    problems = validate_spec(spec)
    assert any("exclusive" in p for p in problems)


@pytest.mark.parametrize("workload", ["proxy", "insitu"])
@pytest.mark.parametrize(
    "field, value", [("faults", "cap_drop@0.5+4.0"), ("chaos_seed", 3)]
)
def test_validate_fault_options_only_on_insitu(workload, field, value):
    spec = ScenarioSpec(name="t", workload=workload, **{field: value})
    expected = [] if workload == "insitu" else [
        f"t.{field}: the {workload!r} workload ignores fault plans; "
        "only 'insitu' runs them"
    ]
    assert validate_spec(spec) == expected


def test_validate_bad_insitu_key():
    spec = ScenarioSpec(name="t", insitu={"frobnicate": 1})
    problems = validate_spec(spec)
    assert any("frobnicate" in p for p in problems)


# ------------------------------------------------------------ to_cells
def test_paired_cells_interleave_managed_and_static():
    spec = dataclasses.replace(
        load_suite("fig8").specs[0], repeats=2
    )
    cells = spec.to_cells()
    assert [c.approach for c in cells] == [
        spec.approach, "static", spec.approach, "static",
    ]
    assert [c.run_index for c in cells] == [0, 0, 1, 1]
    assert cells[1].controller_kwargs == {
        "sim_share": spec.baseline_sim_share
    }


def test_plain_cells_advance_run_index():
    spec = dataclasses.replace(
        load_suite("fig4").specs[0], repeats=3, run_index=5
    )
    cells = spec.to_cells()
    assert [c.run_index for c in cells] == [5, 6, 7]
    assert all(c.approach == spec.approach for c in cells)
