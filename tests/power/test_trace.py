"""Tests for power traces and sampling."""

import dataclasses
import math

import numpy as np
import pytest

from repro.power.trace import PowerTrace, sample_trace


def test_energy_of_constant_segment():
    tr = PowerTrace()
    tr.add(0.0, 2.0, 110.0)
    assert tr.energy() == pytest.approx(220.0)


def test_mean_power_over_window():
    tr = PowerTrace()
    tr.add(0.0, 1.0, 100.0)
    tr.add(1.0, 2.0, 200.0)
    assert tr.mean_power() == pytest.approx(150.0)
    assert tr.mean_power(0.5, 1.5) == pytest.approx(150.0)


def test_power_at_points():
    tr = PowerTrace()
    tr.add(1.0, 2.0, 50.0)
    assert tr.power_at(0.5) == 0.0
    assert tr.power_at(1.5) == 50.0
    assert tr.power_at(2.5) == 0.0


def test_adjacent_equal_segments_merge():
    tr = PowerTrace()
    tr.add(0.0, 1.0, 100.0)
    tr.add(1.0, 2.0, 100.0)
    assert len(tr) == 1


def test_zero_length_segment_dropped():
    tr = PowerTrace()
    tr.add(1.0, 1.0, 100.0)
    assert tr.empty


def test_out_of_order_rejected():
    tr = PowerTrace()
    tr.add(0.0, 2.0, 100.0)
    with pytest.raises(ValueError):
        tr.add(1.0, 3.0, 100.0)


def test_start_one_ulp_before_previous_end_accepted():
    # at a proxy clock of ~16,400 s one ulp (3.6e-12) exceeds 1e-12
    tr = PowerTrace()
    end = 16469.881638376635
    tr.add(16469.0, end, 100.0)
    tr.add(math.nextafter(end, 0.0), end + 1.0, 105.0)
    assert len(tr) == 2
    assert tr.span == (16469.0, end + 1.0)


@pytest.mark.parametrize("run_index", [0, 1])
def test_traced_fig3a_proxy_cell_runs(run_index):
    # power-aware/vacf/d36/n128/s1124 ends a phase segment one ulp
    # after the wait segment that follows it starts
    from repro.campaign import CellSpec, cell_label, run_cell
    from repro.scenario.loader import load_suite

    label = f"power-aware/vacf/d36/n128/s1124/r{run_index}"
    (cell,) = [
        c
        for s in load_suite("fig3a").specs
        for c in s.to_cells()
        if cell_label(c) == label
    ]
    cfg = dataclasses.replace(cell.cfg, collect_traces=True)
    traced = run_cell(
        CellSpec(cell.approach, cfg, cell.run_index, cell.controller_kwargs)
    )
    assert not traced.sim_trace.empty and not traced.ana_trace.empty
    assert traced.total_time_s == run_cell(cell).total_time_s


def test_backwards_segment_rejected():
    tr = PowerTrace()
    with pytest.raises(ValueError):
        tr.add(2.0, 1.0, 100.0)


def test_gap_counts_as_zero_power():
    tr = PowerTrace()
    tr.add(0.0, 1.0, 100.0)
    tr.add(2.0, 3.0, 100.0)
    assert tr.energy() == pytest.approx(200.0)
    assert tr.mean_power() == pytest.approx(200.0 / 3.0)


def test_sampling_reconstructs_levels():
    tr = PowerTrace()
    tr.add(0.0, 1.0, 100.0)
    tr.add(1.0, 2.0, 140.0)
    times, watts = sample_trace(tr, 0.2)
    assert times.shape == watts.shape
    assert watts[0] == pytest.approx(100.0)
    assert watts[-1] == pytest.approx(140.0)


def test_sampling_with_noise():
    tr = PowerTrace()
    tr.add(0.0, 10.0, 100.0)
    rng = np.random.default_rng(0)
    _, watts = sample_trace(tr, 0.5, noise=lambda n: rng.normal(0, 1, n))
    assert not np.allclose(watts, 100.0)
    assert abs(watts.mean() - 100.0) < 2.0


def test_sampling_requires_window():
    tr = PowerTrace()
    tr.add(0.0, 0.1, 100.0)
    with pytest.raises(ValueError):
        sample_trace(tr, 0.5)


def test_span_of_empty_trace_raises():
    with pytest.raises(ValueError):
        PowerTrace().span


def test_power_at_outside_recorded_span_is_zero():
    tr = PowerTrace()
    tr.add(1.0, 2.0, 50.0)
    assert tr.power_at(0.999999) == 0.0
    assert tr.power_at(1.0) == 50.0  # t0 is inclusive
    assert tr.power_at(2.0) == 0.0  # t1 is exclusive
    assert tr.power_at(1e9) == 0.0


def test_energy_of_empty_trace_is_zero():
    tr = PowerTrace()
    assert tr.empty
    assert tr.energy() == 0.0
    assert tr.energy(0.0, 100.0) == 0.0


def test_mean_power_reversed_bounds_raise():
    tr = PowerTrace()
    tr.add(0.0, 2.0, 100.0)
    with pytest.raises(ValueError, match="empty averaging window"):
        tr.mean_power(1.5, 0.5)
    with pytest.raises(ValueError, match="empty averaging window"):
        tr.mean_power(1.0, 1.0)
