"""The proxy traces each synchronization as one work span and one sync
span per partition. Folded by ``build_report``, those
spans give the per-phase joules, rank-seconds and mean node power that
one span per rank gave; per interval and partition their energies sum
to the proxy's own accounting; and tracing leaves the job's result bit
for bit as it is."""

from collections import defaultdict

import pytest

from repro.experiments.runner import build_controller
from repro.metrics import MetricRegistry, MetricsSink
from repro.obs.report import build_report, render_text
from repro.telemetry import MemorySink, Tracer, use_tracer, validate_spans
from repro.workloads import JobConfig
from repro.workloads.lammps_proxy import ProxyJobSession

REL = 1e-9


class _PerRankSession(ProxyJobSession):
    """Reference emitter: one span per rank and phase, as the proxy
    traced before it aggregated per partition."""

    def _emit_phases(
        self, t0, due, work, tail_s, sim_times, ana_times, sim_wait, ana_wait,
        sim_work_j, ana_work_j, sim_total_j, ana_total_j, slack_s, limited,
    ):
        pid = self._tracer.pid
        records = []

        def lane(times, work_j, total_j, tid0, phase_name, emit_phase):
            sync = (work - times + tail_s).tolist()
            sync_j = (total_j - work_j).tolist()
            for r, t_r in enumerate(times.tolist()):
                tid = tid0 + r
                if emit_phase and t_r > 0.0:
                    records.append({
                        "ph": "X", "name": phase_name, "cat": "proxy", "ts": t0,
                        "dur": t_r, "pid": pid, "tid": tid,
                        "args": {"energy_j": float(work_j[r])},
                    })
                if sync[r] > 0.0:
                    records.append({
                        "ph": "X", "name": "insitu.sync", "cat": "proxy",
                        "ts": t0 + t_r, "dur": sync[r], "pid": pid, "tid": tid,
                        "args": {"energy_j": sync_j[r]},
                    })

        lane(sim_times, sim_work_j, sim_total_j, 1, "phase.md", True)
        lane(ana_times, ana_work_j, ana_total_j, self.cfg.n_sim + 1,
             "phase.analysis", bool(due))
        self._tracer.emit_many(records)


def _cfg():
    # rdf every 3rd and full_msd every 2nd synchronization: some
    # intervals have no analysis due, no exchange and no sync tail
    return JobConfig(
        n_nodes=16, n_verlet_steps=24, analyses=("full_msd", "rdf"), seed=7,
        analysis_intervals={"full_msd": 2, "rdf": 3},
    )


def _run(session_cls=ProxyJobSession, sink=None):
    cfg = _cfg()
    if sink is None:
        return session_cls(cfg, build_controller("seesaw", cfg)).run()
    with use_tracer(Tracer(sink)):
        return session_cls(cfg, build_controller("seesaw", cfg)).run()


def _bits(result):
    return result.total_time_s, result.syncs.tobytes()


@pytest.fixture(scope="module")
def traced():
    reg = MetricRegistry()
    mem, ref = MemorySink(), MemorySink()
    result = _run(sink=MetricsSink(reg, forward=mem))
    reference = _run(_PerRankSession, ref)
    return result, mem.records, reference, ref.records, reg


def _spans(records):
    return [r for r in records if r["ph"] == "X"]


def _by_interval(records):
    """``(interval, span)`` pairs. Every interval's spans go out in one
    batch that opens with the first simulation rank's ``phase.md``."""
    i = -1
    for rec in _spans(records):
        if rec["name"] == "phase.md" and rec["tid"] == 1:
            i += 1
        yield i, rec


def test_two_spans_per_partition_per_interval(traced):
    result, records, _, ref_records, _ = traced
    spans = _spans(records)
    assert {r["tid"] for r in spans} == {1, 2}
    assert len(spans) <= 4 * len(result.syncs)
    assert len(spans) * 4 < len(_spans(ref_records))
    assert validate_spans(records) == []
    names = {r["tid"]: r["args"]["name"] for r in records if r["name"] == "thread_name"}
    assert names == {1: "simulation partition", 2: "analysis partition"}


def test_summary_and_report_match_per_rank_reference(traced):
    _, records, _, ref_records, _ = traced
    report, ref_report = build_report(records), build_report(ref_records)
    got, want = (
        {n: b for n, b in r.by_phase.items() if n.startswith("phase.")}
        for r in (report, ref_report)
    )
    assert set(got) == set(want) == {"phase.md", "phase.analysis"}
    for name, w in want.items():
        g = got[name]
        assert g["energy_j"] == pytest.approx(w["energy_j"], rel=REL)
        assert g["wall_s"] == pytest.approx(w["wall_s"], rel=REL)
        assert g["energy_j"] / g["wall_s"] == pytest.approx(
            w["energy_j"] / w["wall_s"], rel=REL
        )
    for key, w in ref_report.spans.items():
        assert report.spans[key]["wall_s"] == pytest.approx(w["wall_s"], rel=REL)

    for table in ("by_phase", "by_category"):
        got_t, want_t = getattr(report, table), getattr(ref_report, table)
        assert set(got_t) == set(want_t)
        for key, w in want_t.items():
            assert got_t[key]["energy_j"] == pytest.approx(w["energy_j"], rel=REL)
            assert got_t[key]["wall_s"] == pytest.approx(w["wall_s"], rel=REL)
    assert sorted(report.by_rank) == [0, 1]
    assert report.total_energy_j == pytest.approx(ref_report.total_energy_j, rel=REL)
    text = render_text(report)
    assert "simulation partition" in text and "analysis partition" in text
    assert "simulation partition" not in render_text(ref_report)


def test_partition_energy_matches_sync_records(traced):
    result, records, _, _, _ = traced
    energy = defaultdict(float)
    for interval, rec in _by_interval(records):
        energy[(interval, rec["tid"])] += rec["args"]["energy_j"]
    assert interval == len(result.syncs) - 1
    for i, sync in enumerate(result.syncs):
        assert energy[(i, 1)] == pytest.approx(sync["sim_energy_j"], rel=REL)
        assert energy[(i, 2)] == pytest.approx(sync["ana_energy_j"], rel=REL)


def test_slack_args_summarize_per_rank_waits(traced):
    _, records, _, ref_records, _ = traced
    n_sim = _cfg().n_sim
    ref_sync = defaultdict(list)
    for interval, rec in _by_interval(ref_records):
        if rec["name"] == "insitu.sync":
            part = 1 if rec["tid"] <= n_sim else 2
            ref_sync[(interval, part)].append(rec["dur"])
    checked = 0
    for interval, rec in _by_interval(records):
        if rec["name"] != "insitu.sync":
            continue
        args = rec["args"]
        durs = ref_sync[(interval, rec["tid"])]
        assert args["rank_s"] == pytest.approx(sum(durs), rel=REL)
        assert 0.0 <= args["slack_mean_s"] <= args["slack_max_s"]
        if len(durs) == args["ranks"]:  # every rank waited: the tail is common
            tail = max(durs) - args["slack_max_s"]
            mean = sum(durs) / len(durs)
            assert mean - args["slack_mean_s"] == pytest.approx(tail, abs=1e-9)
            checked += 1
    assert checked > 0


def test_report_reconciles_with_metrics_registry(traced):
    _, records, _, _, reg = traced
    report = build_report(records)
    assert {"phase.md", "phase.analysis", "insitu.sync"} <= set(report.by_phase)
    for name, bucket in report.by_phase.items():
        hist = reg.histogram(f"span.{name}.energy_j")
        if name == "power.rapl.apply":  # instants: no energy to fold
            assert hist.count == 0 and bucket["energy_j"] == 0.0
            continue
        assert bucket["energy_j"] == pytest.approx(hist.total, rel=1e-12)
        assert bucket["count"] == hist.count


def test_tracing_leaves_results_bit_identical(traced):
    result, _, reference, _, _ = traced
    base = _run()
    assert _bits(result) == _bits(base)
    assert _bits(reference) == _bits(base)


def _limited_by_phase(budget_per_node_w):
    cfg = JobConfig(
        dim=2, n_nodes=4, n_verlet_steps=40, seed=3,
        budget_per_node_w=budget_per_node_w,
    )
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        result = ProxyJobSession(cfg, build_controller("seesaw", cfg)).run()
    untraced = ProxyJobSession(cfg, build_controller("seesaw", cfg)).run()
    assert _bits(result) == _bits(untraced)
    for rec in _spans(sink.records):
        if rec["name"].startswith("phase."):
            assert 0 <= rec["args"]["limited"] <= rec["args"]["ranks"]
    report = build_report(sink.records)
    return {
        name: b["limited"]
        for name, b in report.by_phase.items()
        if name.startswith("phase.")
    }


def test_phase_spans_count_cap_limited_ranks():
    # at 110 W per node the caps sit below every program's turbo demand
    assert all(n > 0 for n in _limited_by_phase(110.0).values())
    # at TDP every rank runs at or above turbo demand
    assert set(_limited_by_phase(215.0).values()) == {0}
