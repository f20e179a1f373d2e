"""CLI coverage: list, unknown experiments, override plumbing,
artifact writing, and the campaign flags.

Heavy experiments are replaced by a monkeypatched stub entry in the
(shared) ``EXPERIMENTS`` registry, so these tests exercise the real
argument parsing, override selection, artifact export and campaign
wiring without regenerating paper figures.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import cli
from repro.obs.merge import PID_STRIDE
from repro.workloads import JobConfig


@dataclass
class StubResult:
    kwargs: dict
    tags: set = field(default_factory=lambda: {"b", "a"})
    where: Path = Path("/tmp/somewhere")

    def render(self) -> str:
        return f"stub table {sorted(self.kwargs)}"


CAPTURED = {}


def _stub_experiment(n_runs: int = 3, n_verlet_steps: int = 400):
    """Stub harness: records the kwargs the CLI passed."""
    CAPTURED["kwargs"] = {"n_runs": n_runs, "n_verlet_steps": n_verlet_steps}
    return StubResult(kwargs=CAPTURED["kwargs"])


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "stub", _stub_experiment)
    CAPTURED.clear()
    return "stub"


@pytest.fixture(autouse=True)
def _no_default_cache(monkeypatch, tmp_path):
    # keep CLI tests from touching the user-level default cache dir
    monkeypatch.setenv("SEESAW_CACHE_DIR", str(tmp_path / "default-cache"))


# ------------------------------------------------------------------ list
def test_list_shows_docstring_summaries(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(None, 1) for line in out.strip().splitlines()
    )
    assert set(lines) == set(EXPERIMENTS)
    assert lines["fig3a"].startswith("Figure 3a")
    assert lines["table1"].startswith("Regenerate Table I")


# ------------------------------------------------------------------ run
def test_run_unknown_experiment_exits_2(capsys):
    assert cli.main(["run", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "fig3a" in err  # lists what is available


def test_quick_override_plumbing(stub, capsys):
    assert cli.main(["run", stub, "--quick"]) == 0
    assert CAPTURED["kwargs"] == {"n_runs": 1, "n_verlet_steps": 100}
    assert "stub table" in capsys.readouterr().out


def test_defaults_without_quick(stub, capsys):
    assert cli.main(["run", stub]) == 0
    assert CAPTURED["kwargs"] == {"n_runs": 3, "n_verlet_steps": 400}


def test_runs_override_beats_quick(stub, capsys):
    assert cli.main(["run", stub, "--quick", "--runs", "5"]) == 0
    assert CAPTURED["kwargs"] == {"n_runs": 5, "n_verlet_steps": 100}


@pytest.mark.parametrize(
    "argv, needle",
    [
        pytest.param(["run", "stub", "--runs", "0"], "--runs", id="--runs-0"),
        pytest.param(["run", "stub", "--jobs", "0"], "--jobs", id="--jobs-0"),
        # seeded benchmark values are pinned by tests, not by a subcommand
        pytest.param(["bench", "check"], "invalid choice: 'bench'", id="bench"),
    ],
)
def test_invalid_counts_exit_2(stub, capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err


def test_run_audit_rejects_a_pool(stub, capsys, tmp_path):
    """Pool workers ship no audit rows, so an audit next to --jobs > 1
    would miss nearly every decision: the pair is refused."""
    audit = tmp_path / "audit.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", stub, "--audit", str(audit), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--audit" in err and "--jobs" in err
    assert CAPTURED == {}
    assert not audit.exists()


# ------------------------------------------------------------------ faults
def _fault_probe(n_runs: int = 3, n_verlet_steps: int = 400):
    """Stub harness: records the fault plan the CLI installed."""
    from repro.faults import get_faults

    CAPTURED["plan"] = get_faults().plan
    return StubResult(kwargs={})


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "probe", _fault_probe)
    CAPTURED.clear()
    return "probe"


@pytest.mark.parametrize(
    "spec, needle",
    [
        ("slowdown@1.0+2.5x1.8", "slowdown"),
        ("meas_drop@0.5+3.0;cap_drop@0.5+4.0", "meas_drop"),
        ("mpi_delay@0+1x0.01", "mpi_delay"),
        ("cap_skew@0+200x-12:rank1", ":rankN"),
    ],
)
def test_run_faults_rejects_what_run_never_applies(probe, capsys, spec, needle):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", probe, "--faults", spec])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err
    assert "plan" not in CAPTURED


def test_run_faults_installs_actuation_plan(probe, capsys):
    assert cli.main(["run", probe, "--faults", "cap_skew@0+200x-12"]) == 0
    assert CAPTURED["plan"].kinds == ("cap_skew",)
    assert "kinds cap_skew;" in capsys.readouterr().err


def test_run_chaos_seed_samples_only_actuation_kinds(probe, capsys):
    from repro.faults import FaultPlan

    assert cli.main(["run", probe, "--chaos-seed", "7"]) == 0
    plan = CAPTURED["plan"]
    assert plan.kinds == ("cap_drop", "cap_lag", "cap_skew")
    # per-kind child streams: the same events the full sample draws
    full = FaultPlan.sample(7, n_ranks=16, horizon_s=20.0)
    assert plan.events == tuple(
        e for e in full.events if e.kind.value in plan.kinds
    )
    assert "kinds cap_drop, cap_lag, cap_skew;" in capsys.readouterr().err


def test_run_cap_skew_reaches_the_proxy(monkeypatch, tmp_path, capsys):
    """The help text's claim: actuation faults move proxy results."""
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    improvement = {}
    for label, extra in (("clean", []), ("skew", ["--faults", "cap_skew@0+1e6x-12"])):
        out = tmp_path / label
        args = ["run", "tiny", "--quick", "--no-cache", "--output", str(out)]
        assert cli.main(args + extra) == 0
        improvement[label] = json.loads((out / "tiny.json").read_text())
    assert improvement["skew"] != improvement["clean"]
    capsys.readouterr()


# ------------------------------------------------------------------ output
def test_output_writes_txt_and_json(stub, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert cli.main(["run", stub, "--quick", "--output", str(out_dir)]) == 0
    txt = (out_dir / "stub.txt").read_text()
    assert "stub table" in txt
    data = json.loads((out_dir / "stub.json").read_text())
    # satellite fix: set and Path fields must be JSON round-trippable,
    # not repr() blobs
    assert data["tags"] == ["a", "b"]
    assert data["where"] == "/tmp/somewhere"
    assert data["kwargs"]["n_runs"] == 1


def test_jsonable_handles_sets_paths_enums():
    from repro.power.rapl import CapMode

    cfg = JobConfig(analyses=("vacf",), dim=16, n_nodes=8, seed=1)
    encoded = cli._jsonable(
        {"s": frozenset({2, 1}), "p": Path("a/b"), "m": CapMode.LONG, "cfg": cfg}
    )
    rountripped = json.loads(json.dumps(encoded))
    assert rountripped["s"] == [1, 2]
    assert rountripped["p"] == "a/b"
    assert rountripped["m"] == "long"
    assert rountripped["cfg"]["cap_mode"] == "long"


# ------------------------------------------------------------------ campaign
def _tiny_experiment(n_runs: int = 2, n_verlet_steps: int = 10):
    """A real (but minuscule) harness that submits cells."""
    from repro.experiments.runner import improvement, run_specs
    from repro.scenario import JobParams, ScenarioSpec

    spec = ScenarioSpec(
        name="tiny",
        approach="seesaw",
        baseline_sim_share=0.5,
        repeats=n_runs,
        job=JobParams(
            analyses=("vacf",),
            dim=16,
            n_nodes=8,
            seed=11,
            n_verlet_steps=n_verlet_steps,
        ),
    )
    imp = improvement(spec, run_specs([spec])[0])
    return StubResult(kwargs={"improvement": imp})


def test_cache_and_journal_flags(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    cache = tmp_path / "cells"
    cold_journal = tmp_path / "cold.jsonl"
    warm_journal = tmp_path / "warm.jsonl"
    common = ["run", "tiny", "--quick", "--cache", str(cache)]

    assert cli.main(common + ["--journal", str(cold_journal)]) == 0
    cold = [json.loads(l) for l in cold_journal.read_text().splitlines()]
    cold_summary = cold[-1]
    assert cold_summary["event"] == "summary"
    assert cold_summary["misses"] > 0

    assert cli.main(common + ["--journal", str(warm_journal)]) == 0
    warm = [json.loads(l) for l in warm_journal.read_text().splitlines()]
    warm_summary = warm[-1]
    # ISSUE acceptance: second invocation is 100 % cell cache hits
    assert warm_summary["hits"] == warm_summary["cells"] > 0
    assert warm_summary["misses"] == 0
    statuses = {l["status"] for l in warm if l["event"] == "cell"}
    assert statuses == {"hit"}
    capsys.readouterr()


def test_no_cache_disables_store(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    journal = tmp_path / "j.jsonl"
    args = ["run", "tiny", "--quick", "--no-cache", "--journal", str(journal)]
    assert cli.main(args) == 0
    assert cli.main(args) == 0  # second run must re-execute everything
    summaries = [
        json.loads(l)
        for l in journal.read_text().splitlines()
        if json.loads(l)["event"] == "summary"
    ]
    assert all(s["hits"] == 0 and s["misses"] > 0 for s in summaries)
    assert not (tmp_path / "default-cache").exists()
    capsys.readouterr()


def test_jobs_flag_matches_serial_numbers(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    out_serial = tmp_path / "serial"
    out_par = tmp_path / "par"
    base = ["run", "tiny", "--quick", "--no-cache"]
    assert cli.main(base + ["--output", str(out_serial)]) == 0
    assert cli.main(base + ["--jobs", "4", "--output", str(out_par)]) == 0
    a = json.loads((out_serial / "tiny.json").read_text())
    b = json.loads((out_par / "tiny.json").read_text())
    assert a["kwargs"]["improvement"] == b["kwargs"]["improvement"]
    capsys.readouterr()


# ----------------------------------------------------------------- trace
def test_trace_subcommand_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    args = ["trace", "--out", str(out), "--steps", "4", "--ranks", "2"]
    assert cli.main(args) == 0
    doc = json.loads(out.read_text())
    evs = doc["traceEvents"]
    assert isinstance(evs, list) and evs
    cats = {e["cat"] for e in evs}
    assert {"des", "core", "power", "insitu"} <= cats
    # nested spans survive export: at least one B strictly inside another
    begins = [e for e in evs if e["ph"] == "B"]
    ends = {
        (e["pid"], e["tid"], e["name"]): e["ts"]
        for e in evs
        if e["ph"] == "E"
    }
    assert begins and ends
    printed = capsys.readouterr().out
    assert "phase" in printed and "perfetto" in printed.lower()


def test_trace_subcommand_rejects_unknown_approach(tmp_path, capsys):
    out = tmp_path / "trace.json"
    args = ["trace", "--out", str(out), "--approach", "nope"]
    assert cli.main(args) == 2
    assert not out.exists()
    assert "unknown approach" in capsys.readouterr().err


def test_trace_subcommand_validates_counts():
    with pytest.raises(SystemExit):
        cli.main(["trace", "--steps", "0"])
    with pytest.raises(SystemExit):
        cli.main(["trace", "--ranks", "0"])


def test_run_trace_flag_writes_trace(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    out = tmp_path / "run-trace.json"
    args = ["run", "tiny", "--quick", "--no-cache", "--trace", str(out)]
    assert cli.main(args) == 0
    doc = json.loads(out.read_text())
    assert isinstance(doc["traceEvents"], list)
    # campaign cells are always traced, whatever the harness does inside
    names = {e["name"] for e in doc["traceEvents"]}
    assert "campaign.cell" in names
    assert "[trace:" in capsys.readouterr().out


def test_run_trace_with_jobs_ships_worker_telemetry(
    monkeypatch, tmp_path, capsys
):
    # --trace is a consumer, so pool workers ship their telemetry and
    # it merges into the parent trace on per-worker lanes
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    out = tmp_path / "run-trace.json"
    args = [
        "run", "tiny", "--quick", "--no-cache",
        "--trace", str(out), "--jobs", "2",
    ]
    assert cli.main(args) == 0
    events = json.loads(out.read_text())["traceEvents"]
    assert any(e["pid"] >= PID_STRIDE for e in events)  # worker lanes


# ----------------------------------------------------- metrics & audit
def test_run_metrics_and_audit_flags(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    metrics_out = tmp_path / "metrics.json"
    audit_out = tmp_path / "audit.jsonl"
    args = [
        "run", "tiny", "--quick", "--no-cache",
        "--metrics", str(metrics_out), "--audit", str(audit_out),
    ]
    assert cli.main(args) == 0
    report = json.loads(metrics_out.read_text())
    assert report["counters"]  # controller decisions etc. were folded in
    from repro.metrics import load_journal

    records = load_journal(audit_out)
    assert any(r.kind == "decision" for r in records)
    out = capsys.readouterr().out
    assert "[metrics report ->" in out
    assert "[audit:" in out


def test_observability_paths_create_missing_parents(monkeypatch, tmp_path, capsys):
    """Satellite: --trace/--metrics/--audit/--journal all accept paths
    whose parent directories do not exist yet."""
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    trace = tmp_path / "t" / "deep" / "trace.json"
    metrics = tmp_path / "m" / "deep" / "metrics.prom"
    audit = tmp_path / "a" / "deep" / "audit.jsonl"
    journal = tmp_path / "j" / "deep" / "run.jsonl"
    args = [
        "run", "tiny", "--quick", "--no-cache",
        "--trace", str(trace), "--metrics", str(metrics),
        "--audit", str(audit), "--journal", str(journal),
    ]
    assert cli.main(args) == 0
    assert json.loads(trace.read_text())["traceEvents"]
    assert "# TYPE" in metrics.read_text()
    assert audit.read_text().strip()
    assert journal.read_text().strip()
    capsys.readouterr()


def _audited_journal(tmp_path, name, tamper=False):
    """Record a real seesaw run's journal to disk via the public API."""
    from repro.experiments.runner import build_controller
    from repro.metrics import AuditJournal, use_audit
    from repro.workloads import run_job

    path = tmp_path / name
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=6, seed=13)
    with use_audit(AuditJournal(path)) as journal:
        run_job(cfg, build_controller("seesaw", cfg))
    journal.close()
    if tamper:
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        assert doc["kind"] == "decision"
        doc["after_sim_w"] += 1.0
        lines[-1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
    return path


def test_audit_replay_clean_and_tampered(tmp_path, capsys):
    clean = _audited_journal(tmp_path, "clean.jsonl")
    assert cli.main(["audit", "replay", str(clean)]) == 0
    assert "reproduced exactly" in capsys.readouterr().out
    bad = _audited_journal(tmp_path, "bad.jsonl", tamper=True)
    assert cli.main(["audit", "replay", str(bad)]) == 1
    assert "MISMATCHES" in capsys.readouterr().out


def test_audit_diff_exit_codes(tmp_path, capsys):
    a = _audited_journal(tmp_path, "a.jsonl")
    b = _audited_journal(tmp_path, "b.jsonl")
    assert cli.main(["audit", "diff", str(a), str(b)]) == 0
    assert "agree" in capsys.readouterr().out
    c = _audited_journal(tmp_path, "c.jsonl", tamper=True)
    assert cli.main(["audit", "diff", str(a), str(c)]) == 1
    assert "divergence" in capsys.readouterr().out
    # recording into an existing path replaces it rather than appending
    _audited_journal(tmp_path, "twice.jsonl")
    twice = _audited_journal(tmp_path, "twice.jsonl")
    assert cli.main(["audit", "diff", str(a), str(twice)]) == 0


def test_audit_timeline_renders(tmp_path, capsys):
    journal = _audited_journal(tmp_path, "t.jsonl")
    assert cli.main(["audit", "timeline", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "controller timeline" in out
    assert "pred slack s" in out
