"""The ``scenario`` CLI verbs, ``run --spec``, and the HASHES gate."""

import json

import pytest

from repro.experiments import cli
from repro.scenario import load_suite, specs_dir, suite_hash

SHIPPED = sorted(
    p.stem for p in specs_dir().glob("*.json") if p.name != "HASHES.json"
)


# ------------------------------------------------------------- HASHES.json
def test_hashes_json_pins_every_shipped_suite():
    pins = json.loads((specs_dir() / "HASHES.json").read_text())
    assert sorted(pins) == SHIPPED


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_suite_matches_pin(name):
    pins = json.loads((specs_dir() / "HASHES.json").read_text())
    assert suite_hash(load_suite(name)) == pins[name], (
        f"specs/{name}.json drifted from its pin; regenerate both with "
        "tools/gen_specs.py"
    )


# ------------------------------------------------------------- scenario CLI
def test_scenario_list_names_all_suites(capsys):
    assert cli.main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in SHIPPED:
        assert name in out


def test_scenario_list_one_suite(capsys):
    assert cli.main(["scenario", "list", "fig4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "fig4/seesaw" in out and "fig4/static" in out


def test_scenario_validate_shipped_ok(capsys):
    assert cli.main(["scenario", "validate"]) == 0
    assert "OK" in capsys.readouterr().out


def test_scenario_validate_flags_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "t/bad",
                "approach": "static",
                "controller": {"window": 3},
            }
        )
    )
    assert cli.main(["scenario", "validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "window" in err


def test_scenario_validate_flags_unknown_approach(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "t/bad", "approach": "warp9"}))
    assert cli.main(["scenario", "validate", str(bad)]) == 1
    assert "unknown approach" in capsys.readouterr().err


def test_scenario_expand_matrix(capsys):
    assert cli.main(["scenario", "expand", "fig8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "fig8/budget_per_node_w=98"


def test_scenario_expand_json(capsys):
    assert cli.main(["scenario", "expand", "fig4", "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["name"] for d in docs] == [
        "fig4/seesaw", "fig4/time-aware", "fig4/power-aware", "fig4/static",
    ]


def test_scenario_hash_check_passes(capsys):
    assert cli.main(["scenario", "hash", "--check"]) == 0
    assert "ok" in capsys.readouterr().out


def test_scenario_hash_check_detects_drift(tmp_path, monkeypatch, capsys):
    # copy the shipped specs, tamper with one, point the CLI at the copy
    import shutil

    clone = tmp_path / "specs"
    shutil.copytree(specs_dir(), clone)
    doc = json.loads((clone / "fig4.json").read_text())
    doc["scenarios"][0]["job"]["seed"] = 4242
    (clone / "fig4.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SEESAW_SPECS_DIR", str(clone))
    assert cli.main(["scenario", "hash", "--check"]) == 1
    assert "DRIFT" in capsys.readouterr().err


def test_scenario_unknown_file_exits_2(capsys):
    assert cli.main(["scenario", "expand", "no-such-suite"]) == 2
    assert "cannot read" in capsys.readouterr().err


# ------------------------------------------------------------- run --spec
def test_run_spec_conflicts_with_experiment():
    with pytest.raises(SystemExit):
        cli.main(["run", "fig4", "--spec", "specs/fig4.json"])
    with pytest.raises(SystemExit):
        cli.main(["run"])


def test_run_spec_missing_file_exits_2(tmp_path, capsys):
    assert (
        cli.main(["run", "--spec", str(tmp_path / "nope.json"), "--no-cache"])
        == 2
    )
    assert "cannot read" in capsys.readouterr().err


def test_run_spec_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "t/bad", "approach": "warp9"}))
    assert cli.main(["run", "--spec", str(bad), "--no-cache"]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_run_spec_fig4_matches_in_code_harness(monkeypatch, tmp_path, capsys):
    """``run --spec specs/fig4.json`` == the in-code fig4 numbers."""
    monkeypatch.setenv("SEESAW_CACHE_DIR", str(tmp_path / "cache"))
    out_dir = tmp_path / "artifacts"
    spec_file = specs_dir() / "fig4.json"
    args = [
        "run", "--spec", str(spec_file),
        "--quick", "--output", str(out_dir), "--no-cache",
    ]
    assert cli.main(args) == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "fig4.json").read_text())
    got = {
        row["name"]: row["total_time_s"][0]
        for row in payload["scenarios"]
    }

    # the same scenarios executed directly (the path run_fig4 takes),
    # with --quick's n_verlet_steps=100 override applied
    from repro.experiments.runner import run_specs

    for spec in load_suite("fig4"):
        (expected,) = run_specs([spec.with_job(n_verlet_steps=100)])[0]
        assert got[spec.name] == expected.total_time_s


def test_run_spec_paired_suite_reports_improvement(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setenv("SEESAW_CACHE_DIR", str(tmp_path / "cache"))
    out_dir = tmp_path / "artifacts"
    # fig7 is a paired suite (baseline_sim_share set on every scenario)
    args = [
        "run", "--spec", str(specs_dir() / "fig7.json"),
        "--quick", "--output", str(out_dir), "--no-cache",
    ]
    assert cli.main(args) == 0
    assert "% vs static" in capsys.readouterr().out
    payload = json.loads((out_dir / "fig7.json").read_text())
    assert all(r["mode"] == "paired" for r in payload["scenarios"])
    assert all(
        isinstance(r["improvement_pct"], float)
        for r in payload["scenarios"]
    )


# ------------------------------------------------------------- list + trace
def test_list_mentions_spec_paths(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "[specs/fig4.json]" in out
    assert "[specs/table2.json]" in out


@pytest.mark.parametrize("approach", ["seesaw-exploring"])
def test_trace_runs_experimental_approaches(approach, tmp_path, capsys):
    out = tmp_path / "trace.json"
    args = ["trace", "--approach", approach, "--steps", "4", "--out", str(out)]
    assert cli.main(args) == 0
    assert out.exists()
    assert approach in capsys.readouterr().out


def test_chaos_matrix_out_round_trips(tmp_path, capsys):
    matrix_file = tmp_path / "chaos.json"
    args = [
        "chaos", "--seed", "3", "--steps", "4",
        "--controllers", "static,seesaw", "--kinds", "slowdown",
        "--matrix-out", str(matrix_file),
    ]
    assert cli.main(args) in (0, 1)  # the gate may trip; the dump must not
    capsys.readouterr()
    assert cli.main(["scenario", "validate", str(matrix_file)]) == 0
    assert cli.main(["scenario", "expand", str(matrix_file)]) == 0
    lines = capsys.readouterr()
    names = [
        line for line in lines.out.splitlines() if line.startswith("chaos/")
    ]
    assert names == [
        "chaos/approach=static/fault_kind=slowdown",
        "chaos/approach=seesaw/fault_kind=slowdown",
    ]
