"""Controllers tolerate degraded observations (zero measured ranks).

Satellite of the fault-injection PR: an Observation whose partition
measurement aggregates zero surviving ranks must make every controller
hold (return None) with an audit hold row — never divide by zero or
mis-shape its cap arrays.
"""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.core import Observation, PartitionMeasurement, SeeSAwController
from repro.metrics.audit import AuditJournal, use_audit
from repro.scenario import controller_names, get_controller

N = 2
BUDGET_W = 4 * 110.0

CONTROLLERS = {n: get_controller(n).cls for n in controller_names()}


def empty_measurement() -> PartitionMeasurement:
    """What polimer.manager aggregates when no rank reported."""
    return PartitionMeasurement(
        work_time_s=0.0,
        energy_j=0.0,
        interval_s=1e-9,
        node_epoch_times_s=np.zeros(0),
        node_power_w=np.zeros(0),
    )


def full_measurement(n=N) -> PartitionMeasurement:
    times = np.full(n, 1.0)
    powers = np.full(n, 105.0)
    return PartitionMeasurement(
        work_time_s=1.0,
        energy_j=float(powers.sum()),
        interval_s=1.0,
        node_epoch_times_s=times,
        node_power_w=powers,
    )


def partial_measurement() -> PartitionMeasurement:
    times = np.full(1, 1.0)
    powers = np.full(1, 105.0)
    return PartitionMeasurement(
        work_time_s=1.0,
        energy_j=105.0,
        interval_s=1.0,
        node_epoch_times_s=times,
        node_power_w=powers,
    )


@pytest.mark.parametrize("name", CONTROLLERS)
def test_zero_measured_ranks_holds_with_audit_row(name):
    controller = CONTROLLERS[name](BUDGET_W, N, N, THETA_NODE)
    journal = AuditJournal(None)
    with use_audit(journal):
        controller.initial_allocation()
        obs = Observation(
            step=1,
            sim=empty_measurement(),
            ana=empty_measurement(),
            sim_missing=N,
            ana_missing=N,
        )
        assert obs.degraded
        decision = controller.observe(obs)
    assert decision is None  # explicit hold, no crash
    holds = [r for r in journal.records if r.kind == "hold"]
    assert holds, f"{name} recorded no hold row"
    assert holds[0].inputs["reason"] == "empty_partition"
    assert holds[0].inputs["sim_missing"] == N


@pytest.mark.parametrize("name", CONTROLLERS)
def test_one_empty_partition_also_holds(name):
    controller = CONTROLLERS[name](BUDGET_W, N, N, THETA_NODE)
    controller.initial_allocation()
    obs = Observation(
        step=1, sim=full_measurement(), ana=empty_measurement(), ana_missing=N
    )
    assert controller.observe(obs) is None


@pytest.mark.parametrize("name", ["time-aware", "power-aware"])
def test_per_node_controllers_hold_on_partial_arrays(name):
    # per-node arithmetic needs one entry per node: a surviving-ranks
    # aggregate with fewer entries must hold, not mis-shape the caps
    controller = CONTROLLERS[name](BUDGET_W, N, N, THETA_NODE)
    journal = AuditJournal(None)
    with use_audit(journal):
        controller.initial_allocation()
        obs = Observation(
            step=1,
            sim=partial_measurement(),
            ana=full_measurement(),
            sim_missing=1,
        )
        assert controller.observe(obs) is None
    holds = [r for r in journal.records if r.kind == "hold"]
    assert holds and holds[0].inputs["reason"] == "partial_nodes"


def test_seesaw_decides_on_partial_partition_totals():
    # partition-total strategies aggregate over survivors: a partial
    # (but non-empty) partition is usable, not a hold
    controller = SeeSAwController(BUDGET_W, N, N, THETA_NODE)
    controller.initial_allocation()
    obs = Observation(
        step=1, sim=partial_measurement(), ana=full_measurement(), sim_missing=1
    )
    # must not raise; w=1 SeeSAw decides every observation it accepts
    assert controller.observe(obs) is not None


def test_repeated_degraded_observations_keep_holding():
    controller = SeeSAwController(BUDGET_W, N, N, THETA_NODE)
    init = controller.initial_allocation()
    for step in range(1, 5):
        obs = Observation(
            step=step,
            sim=empty_measurement(),
            ana=empty_measurement(),
            sim_missing=N,
            ana_missing=N,
        )
        assert controller.observe(obs) is None
    # recovery: a later full observation is accepted again
    obs = Observation(step=5, sim=full_measurement(), ana=full_measurement())
    decision = controller.observe(obs)
    assert decision is not None
    assert decision.total_w <= BUDGET_W + 1e-6
    assert init.total_w <= BUDGET_W + 1e-6


def test_stale_counts_mark_degraded_but_usable():
    obs = Observation(
        step=1, sim=full_measurement(), ana=full_measurement(), sim_stale=1
    )
    assert obs.degraded
    controller = SeeSAwController(BUDGET_W, N, N, THETA_NODE)
    controller.initial_allocation()
    # stale-but-complete observations are still usable
    assert controller.observe(obs) is not None
