"""Validation tests for the controller interface datatypes."""

import numpy as np
import pytest

from repro.core import Allocation, Observation, PartitionMeasurement


def measurement(**kw):
    defaults = dict(
        work_time_s=2.0,
        energy_j=440.0,
        interval_s=2.0,
        node_epoch_times_s=np.array([2.0, 2.1]),
        node_power_w=np.array([110.0, 110.0]),
    )
    defaults.update(kw)
    return PartitionMeasurement(**defaults)


def test_measurement_aggregates():
    m = measurement()
    assert m.n_nodes == 2
    assert m.mean_power_w == pytest.approx(110.0)
    assert m.total_power_w == pytest.approx(220.0)


def test_measurement_validation():
    with pytest.raises(ValueError):
        measurement(work_time_s=-1.0)
    with pytest.raises(ValueError):
        measurement(interval_s=0.0)
    with pytest.raises(ValueError):
        measurement(node_epoch_times_s=np.array([1.0]))  # misaligned


def test_allocation_total_and_positive():
    a = Allocation(
        sim_caps_w=np.array([110.0, 120.0]),
        ana_caps_w=np.array([100.0, 110.0]),
    )
    assert a.total_w == pytest.approx(440.0)
    with pytest.raises(ValueError):
        Allocation(
            sim_caps_w=np.array([0.0]), ana_caps_w=np.array([110.0])
        )


def test_observation_bundles_partitions():
    obs = Observation(step=4, sim=measurement(), ana=measurement())
    assert obs.step == 4
    assert obs.sim.n_nodes == obs.ana.n_nodes == 2
