"""Tests for the phase executor (work -> durations/energy under caps)."""

import numpy as np
import pytest

from repro.cluster.noise import NoiseModel
from repro.cluster.node import THETA_NODE
from repro.power.execution import execute_phase
from repro.power.model import PhaseKind, operating_point
from repro.power.rapl import RaplDomainArray
from repro.util.rng import RngStream
from repro.workloads.lammps_proxy import JobConfig, _Partition

COMPUTE = PhaseKind("force", k_watts=85.0, gamma=2.0, beta=1.0)
COMM = PhaseKind("comm", k_watts=38.0, gamma=0.1, beta=0.05)


def make_domain(n=2, cap=110.0, delay=0.0):
    return RaplDomainArray(THETA_NODE, n, cap, actuation_delay_s=delay)


def test_duration_is_work_over_speed():
    dom = make_domain(n=1, cap=150.0)  # demand at base = 150 -> speed 1.0
    out = execute_phase(COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0)
    assert out.durations[0] == pytest.approx(4.0)


def test_higher_cap_runs_faster():
    lo = execute_phase(COMPUTE, THETA_NODE, 4.0, make_domain(1, 105.0), 0.0)
    hi = execute_phase(COMPUTE, THETA_NODE, 4.0, make_domain(1, 170.0), 0.0)
    assert hi.durations[0] < lo.durations[0]


def test_energy_is_draw_times_duration():
    dom = make_domain(n=1, cap=120.0)
    out = execute_phase(COMPUTE, THETA_NODE, 2.0, dom, t_start=0.0)
    op = operating_point(COMPUTE, THETA_NODE, 120.0)
    assert out.energy_joules[0] == pytest.approx(
        out.durations[0] * op.draw_watts[0]
    )


def test_noise_factors_scale_duration():
    dom = make_domain(n=3, cap=150.0)
    noise = np.array([1.0, 1.1, 0.9])
    out = execute_phase(
        COMPUTE, THETA_NODE, 2.0, dom, t_start=0.0, noise_factors=noise
    )
    assert np.allclose(out.durations, 2.0 * noise)
    assert out.slowest == pytest.approx(2.2)
    assert out.fastest == pytest.approx(1.8)


def test_cap_change_mid_phase_splits_execution():
    # Start throttled at 98 W; raise the cap to 215 W effective at t=1.
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    work = 4.0
    out = execute_phase(COMPUTE, THETA_NODE, work, dom, t_start=0.0)
    s_low = operating_point(COMPUTE, THETA_NODE, 98.0).speed[0]
    s_high = operating_point(COMPUTE, THETA_NODE, 215.0).speed[0]
    expected = 1.0 + (work - 1.0 * s_low) / s_high
    assert out.durations[0] == pytest.approx(expected)


def test_cap_change_energy_accounting():
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    out = execute_phase(COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0)
    draw_low = operating_point(COMPUTE, THETA_NODE, 98.0).draw_watts[0]
    draw_high = operating_point(COMPUTE, THETA_NODE, 215.0).draw_watts[0]
    expected = 1.0 * draw_low + (out.durations[0] - 1.0) * draw_high
    assert out.energy_joules[0] == pytest.approx(expected)


def test_zero_work_completes_instantly():
    dom = make_domain(n=2)
    out = execute_phase(COMPUTE, THETA_NODE, 0.0, dom, t_start=5.0)
    assert np.allclose(out.durations, 0.0)
    assert np.allclose(out.energy_joules, 0.0)


def test_negative_work_rejected():
    with pytest.raises(ValueError):
        execute_phase(COMPUTE, THETA_NODE, -1.0, make_domain(), 0.0)


def test_segments_collected_when_requested():
    # The phase straddles the actuation at t=1: one second throttled at
    # the 98 W cap, then the rest of the work under the raised cap.
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    out = execute_phase(COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0)
    low = operating_point(COMPUTE, THETA_NODE, 98.0)
    high = operating_point(COMPUTE, THETA_NODE, 215.0)
    assert low.draw_watts[0] == pytest.approx(98.0)
    tail = out.durations[0] - 1.0
    assert tail > 0.0
    assert tail * high.speed[0] == pytest.approx(4.0 - low.speed[0])
    assert out.energy_joules[0] == pytest.approx(
        98.0 + tail * high.draw_watts[0]
    )


def test_comm_phase_duration_cap_invariant():
    lo = execute_phase(COMM, THETA_NODE, 1.0, make_domain(1, 105.0), 0.0)
    hi = execute_phase(COMM, THETA_NODE, 1.0, make_domain(1, 215.0), 0.0)
    assert hi.durations[0] == pytest.approx(lo.durations[0], rel=0.05)


def test_wait_energy_clipped_by_cap():
    # A partition's spin-wait draw is the busy-wait power clipped by
    # the enforced cap: a node capped at 98 W cannot burn 105 W waiting.
    def partition(cap):
        cfg = JobConfig(n_nodes=4)
        noise = NoiseModel(RngStream(0), 2, cfg.cap_mode)
        return _Partition("sim", 2, cfg, noise, np.full(2, cap), None)

    waits = np.array([1.0, 2.0])
    e = waits * partition(98.0).wait_draw(0.0)
    assert np.allclose(e, [98.0, 196.0])
    e2 = np.ones(2) * partition(215.0).wait_draw(0.0)
    assert np.allclose(e2, THETA_NODE.p_wait_watts)


def test_per_node_heterogeneous_caps():
    dom = make_domain(n=2, cap=110.0, delay=0.0)
    dom.request_caps(np.array([98.0, 180.0]), now=0.0)
    out = execute_phase(COMPUTE, THETA_NODE, 3.0, dom, t_start=0.0)
    assert out.durations[1] < out.durations[0]


def general_loop(kind, work, dom, t_start, noise):
    """Reference: every cap segment, the last one included, through the
    general iteration (no closed-form exit)."""
    n = dom.n_nodes
    remaining = work * np.asarray(noise, dtype=float)
    durations = np.zeros(n)
    energy = np.zeros(n)
    t = t_start
    active = remaining > 0.0
    while active.any():
        caps, t_change = dom.segment_at(t)
        op = operating_point(kind, THETA_NODE, caps)
        speed = np.maximum(op.speed, 1e-12)
        finish_at = np.where(active, t + remaining / speed, t)
        seg_end = min(t_change, float(finish_at.max()))
        if seg_end <= t:
            seg_end = t_change
        span = seg_end - t
        done = active & (finish_at <= seg_end)
        going = active & ~done
        active_time = np.where(done, finish_at - t, np.where(going, span, 0.0))
        remaining = np.where(
            going, remaining - span * speed, np.where(done, 0.0, remaining)
        )
        durations = np.where(done, finish_at - t_start, durations)
        energy += active_time * op.draw_watts
        active = going
        t = seg_end
    return durations, energy


@pytest.mark.parametrize("delay", [0.0, 0.01, 0.5, 1.3, 50.0])
@pytest.mark.parametrize("caps", [98.0, [98.0, 130.0, 215.0, 110.0, 105.0]])
def test_last_segment_closed_form_matches_a_general_iteration(delay, caps):
    # With a 0.5 s actuation, node 0 finishes before the cap change and
    # nodes 1-3 after it (node 4 has no work); the segment after the
    # change resolves in the closed-form exit, which must give the
    # general iteration's bits.
    noise = np.array([0.1, 1.0, 1.7, 0.6, 0.0])
    results = []
    for run in ("closed", "general"):
        dom = make_domain(n=5, cap=caps, delay=delay)
        dom.request_caps([215.0, 180.0, 98.0, 140.0, 120.0], now=2.0)
        if run == "closed":
            out = execute_phase(
                COMPUTE, THETA_NODE, 1.5, dom, t_start=2.0, noise_factors=noise
            )
            results.append((out.durations, out.energy_joules))
        else:
            results.append(general_loop(COMPUTE, 1.5, dom, 2.0, noise))
    (durations, energy), (ref_durations, ref_energy) = results
    assert np.array_equal(durations, ref_durations)
    assert np.array_equal(energy, ref_energy)
    assert durations[4] == 0.0 and energy[4] == 0.0
