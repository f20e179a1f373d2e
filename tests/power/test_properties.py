"""Property-based tests for the power model and phase executor."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import THETA_NODE
from repro.power.execution import PhaseProgram, execute_phase
from repro.power.model import PhaseKind, operating_point
from repro.power.rapl import CapMode, RaplDomainArray

phase_kinds = st.builds(
    PhaseKind,
    name=st.just("p"),
    k_watts=st.floats(5.0, 120.0),
    gamma=st.floats(0.1, 4.0),
    beta=st.floats(0.0, 1.5),
)

caps = st.floats(98.0, 215.0)


@given(phase_kinds, caps)
@settings(max_examples=100, deadline=None)
def test_draw_never_exceeds_cap_or_saturation(kind, cap):
    op = operating_point(kind, THETA_NODE, cap)
    demand_turbo = float(kind.demand(THETA_NODE, THETA_NODE.f_turbo))
    assert op.draw_watts[0] <= max(cap, demand_turbo) + 1e-9
    assert op.draw_watts[0] <= demand_turbo + 1e-9
    assert op.draw_watts[0] > 0


@given(phase_kinds, caps, caps)
@settings(max_examples=100, deadline=None)
def test_speed_monotone_in_cap(kind, cap_a, cap_b):
    lo, hi = sorted((cap_a, cap_b))
    op_lo = operating_point(kind, THETA_NODE, lo)
    op_hi = operating_point(kind, THETA_NODE, hi)
    assert op_hi.speed[0] >= op_lo.speed[0] - 1e-12


@given(phase_kinds, caps)
@settings(max_examples=100, deadline=None)
def test_speed_bounded_by_turbo(kind, cap):
    op = operating_point(kind, THETA_NODE, cap)
    max_speed = float(kind.speed(THETA_NODE, THETA_NODE.f_turbo))
    assert 0 < op.speed[0] <= max_speed + 1e-12


@given(
    phase_kinds,
    st.floats(0.01, 20.0),
    caps,
)
@settings(max_examples=60, deadline=None)
def test_execution_duration_matches_operating_point(kind, work, cap):
    dom = RaplDomainArray(THETA_NODE, 1, cap, actuation_delay_s=0.0)
    out = execute_phase(kind, THETA_NODE, work, dom, t_start=0.0)
    op = operating_point(kind, THETA_NODE, cap)
    assert out.durations[0] == pytest.approx(work / op.speed[0])
    assert out.energy_joules[0] == pytest.approx(
        out.durations[0] * op.draw_watts[0]
    )


@given(
    phase_kinds,
    st.floats(0.01, 20.0),
    caps,
    caps,
)
@settings(max_examples=60, deadline=None)
def test_execution_never_slower_with_more_power(kind, work, cap_a, cap_b):
    lo, hi = sorted((cap_a, cap_b))
    d_lo = execute_phase(
        kind,
        THETA_NODE,
        work,
        RaplDomainArray(THETA_NODE, 1, lo, actuation_delay_s=0.0),
        0.0,
    ).durations[0]
    d_hi = execute_phase(
        kind,
        THETA_NODE,
        work,
        RaplDomainArray(THETA_NODE, 1, hi, actuation_delay_s=0.0),
        0.0,
    ).durations[0]
    assert d_hi <= d_lo + 1e-9


# n=1 runs the one-node kernel, n=3 the per-node array loop
@pytest.mark.parametrize("n", [1, 3])
@given(
    phase_kinds,
    st.floats(0.1, 10.0),
    caps,
    caps,
    st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_mid_phase_cap_change_conserves_work(
    n, kind, work, cap_a, cap_b, frac
):
    """Splitting a phase across a cap change must complete exactly the
    same work as the unsplit executions would imply."""
    dom = RaplDomainArray(THETA_NODE, 1, cap_a, actuation_delay_s=0.0)
    op_a = operating_point(kind, THETA_NODE, dom.segment_at(0.0)[0])
    total_a = work / op_a.speed[0]
    t_switch = frac * total_a
    dom2 = RaplDomainArray(
        THETA_NODE, n, cap_a, actuation_delay_s=t_switch
    )
    dom2.request_caps(cap_b, now=0.0)
    out = execute_phase(kind, THETA_NODE, work, dom2, t_start=0.0)
    # reconstruct work done from the two operating points
    op_a_eff = operating_point(kind, THETA_NODE, dom.segment_at(0.0)[0])
    op_b = operating_point(kind, THETA_NODE, np.atleast_1d(cap_b))
    for d in out.durations:
        if d <= t_switch + 1e-12:
            done = d * op_a_eff.speed[0]
        else:
            done = (
                t_switch * op_a_eff.speed[0]
                + (d - t_switch) * op_b.speed[0]
            )
        assert done == pytest.approx(work, rel=1e-6)


@given(
    kind_a=phase_kinds,
    kind_b=phase_kinds,
    row=st.sampled_from([None, 0, 1]),
    work=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
    noise=st.floats(0.5, 2.0),
    noise_as_array=st.booleans(),
    cap=caps,
    mode=st.sampled_from(list(CapMode)),
    delay=st.sampled_from([0.0, 0.01]),
    t_start=st.floats(0.0, 50.0),
    # requests made before the first phase, at t_start + offset: they
    # land before, inside or after it, and a later one supersedes an
    # earlier one that is still pending
    requests=st.lists(st.tuples(st.floats(-0.5, 3.0), caps), max_size=3),
    # a request made when the first phase ends
    between=st.none() | caps,
)
@settings(max_examples=200, deadline=None)
def test_one_node_kernel_matches_the_array_loop(
    kind_a, kind_b, row, work, noise, noise_as_array, cap, mode, delay,
    t_start, requests, between,
):
    """A one-node domain's phases are bit-identical to node 0 of a
    two-node twin (equal caps, equal requests, noise ``[f, f]``), which
    runs the per-node array loop: uniform caps resolve the operating
    point on one element, so element 0 is the loop's one-node result."""
    program = PhaseProgram(
        [
            SimpleNamespace(kind=kind_a, work_s=1.0),
            SimpleNamespace(kind=kind_b, work_s=0.5),
        ]
    )
    kind = kind_a if row is None else program.phases[row].kind
    rows = None if row is None else (program, row)
    one, twin = (
        RaplDomainArray(THETA_NODE, n, cap, mode=mode, actuation_delay_s=delay)
        for n in (1, 2)
    )
    for offset, watts in requests:
        for dom in (one, twin):
            dom.request_caps(watts, now=t_start + offset)
    factors = np.array([noise]) if noise_as_array else noise
    t = t_start
    for phase in range(2):
        if phase and between is not None:
            for dom in (one, twin):
                dom.request_caps(between, now=t)
        out = execute_phase(
            kind, THETA_NODE, work, one, t, factors, program=rows
        )
        ref = execute_phase(
            kind, THETA_NODE, work, twin, t, np.array([noise, noise]),
            program=rows,
        )
        assert out.durations.shape == out.energy_joules.shape == (1,)
        assert out.durations.tobytes() == ref.durations[:1].tobytes()
        assert out.energy_joules.tobytes() == ref.energy_joules[:1].tobytes()
        t = t + float(ref.durations[0])
    assert one.caps_version == twin.caps_version
    assert one.requested_caps.tobytes() == twin.requested_caps[:1].tobytes()
    assert list(one.op_cache) == list(twin.op_cache)
