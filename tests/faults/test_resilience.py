"""Every controller survives every fault kind on the real coupled job.

The matrix below is the in-tree half of the CI chaos gate: each
controller runs the miniature in-situ job under a single-kind fault
window and must (a) complete without an exception, (b) never install an
allocation above the budget, and (c) for measurement faults, surface
its holds in the audit journal so ``audit replay`` shows them.
"""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.faults import FaultInjector, FaultKind, FaultPlan, use_faults
from repro.insitu import InsituConfig, run_insitu
from repro.metrics.audit import AuditJournal, replay, use_audit
from repro.scenario import controller_names, get_controller

RANKS = 2
CAP_W = 110.0
BUDGET_W = 2 * RANKS * CAP_W

CONTROLLERS = {n: get_controller(n).cls for n in controller_names()}

#: one deliberately nasty window per kind, sized for the ~2.7 s job
FAULT_SPECS = {
    FaultKind.SLOWDOWN: "slowdown@0.3+1.5x2.0:rank1",
    FaultKind.CRASH: "crash@0.4+0.3:rank0",
    FaultKind.CAP_DROP: "cap_drop@0.2+2.0",
    FaultKind.CAP_LAG: "cap_lag@0.2+2.0x0.05",
    FaultKind.CAP_SKEW: "cap_skew@0.2+2.0x-8.0",
    FaultKind.MEAS_DROP: "meas_drop@0.2+2.0:rank0",
    FaultKind.MEAS_STALE: "meas_stale@0.2+2.0:rank1",
    FaultKind.MEAS_GARBLE: "meas_garble@0.2+2.0x2.5:rank2",
    FaultKind.MPI_DELAY: "mpi_delay@0.2+2.0x0.002",
}


def make_controller(name: str):
    return CONTROLLERS[name](BUDGET_W, RANKS, RANKS, THETA_NODE)


def run_faulted(name: str, spec: str, steps: int = 4):
    cfg = InsituConfig(
        n_sim_ranks=RANKS, n_ana_ranks=RANKS, n_verlet_steps=steps
    )
    with use_faults(FaultInjector(FaultPlan.from_spec(spec))):
        return run_insitu(cfg, make_controller(name))


@pytest.mark.parametrize("kind", FAULT_SPECS, ids=lambda k: k.value)
@pytest.mark.parametrize("name", CONTROLLERS)
def test_controller_completes_within_budget(name, kind):
    result = run_faulted(name, FAULT_SPECS[kind])
    assert result.virtual_time_s > 0.0
    assert result.verification_failures == 0
    # the fault actually fired (every spec window overlaps the run)
    assert any(r["kind"] == kind.value for r in result.fault_events)
    # no installed allocation ever exceeds the budget
    for _, alloc in result.allocation_log:
        assert alloc.total_w <= BUDGET_W + 1e-6
        assert np.all(alloc.sim_caps_w > 0)
        assert np.all(alloc.ana_caps_w > 0)


def test_meas_drop_holds_visible_in_audit_replay(tmp_path):
    journal = AuditJournal(tmp_path / "audit.jsonl")
    with use_audit(journal):
        run_faulted("time-aware", "meas_drop@0.2+5.0:rank1")
    journal.close()
    result = replay(journal.records)
    assert result.clean
    assert result.n_faults >= 1
    assert result.n_holds >= 1
    rendered = result.render()
    assert "fault window(s) injected" in rendered
    assert "hold(s)" in rendered


def test_hold_reasons_recorded():
    from repro.metrics.audit import AuditJournal

    journal = AuditJournal(None)
    with use_audit(journal):
        run_faulted("time-aware", "meas_drop@0.2+5.0:rank0")
    holds = [r for r in journal.records if r.kind == "hold"]
    assert holds
    assert holds[0].inputs["reason"] == "partial_nodes"
    assert holds[0].inputs["sim_missing"] >= 1


def test_seesaw_aggregates_over_surviving_ranks():
    # partition-total strategies tolerate a partial partition: with one
    # sim rank's report dropped, SeeSAw still decides (no holds needed)
    result = run_faulted("seesaw", "meas_drop@0.2+5.0:rank1")
    assert len(result.allocation_log) > 0
    degraded = [o for o in result.observation_log if o.sim_missing > 0]
    assert degraded  # the drop was visible to the controller


def test_whole_partition_dropped_holds_every_controller():
    # both sim ranks silenced: even the aggregating controllers hold
    spec = "meas_drop@0.2+5.0:rank0;meas_drop@0.2+5.0:rank1"
    for name in ("seesaw", "static"):
        result = run_faulted(name, spec)
        assert result.virtual_time_s > 0.0
        for obs in result.observation_log:
            if obs.sim.n_nodes == 0:
                assert obs.degraded
