"""Tests for the phase power/performance model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import THETA_NODE, NodeSpec
from repro.power.model import (
    OperatingPoint,
    PhaseKind,
    _Powers,
    _stack,
    operating_point,
)
from repro.workloads.profiles import PHASES

COMPUTE = PhaseKind("force", k_watts=85.0, gamma=2.0, beta=1.0)
COMM = PhaseKind("comm", k_watts=38.0, gamma=0.1, beta=0.05)


def test_demand_increases_with_frequency():
    d_low = COMPUTE.demand(THETA_NODE, 0.8)
    d_high = COMPUTE.demand(THETA_NODE, 1.5)
    assert d_high > d_low > THETA_NODE.p_floor_watts


def test_demand_at_base_is_floor_plus_k():
    assert COMPUTE.demand(THETA_NODE, THETA_NODE.f_base) == pytest.approx(
        THETA_NODE.p_floor_watts + 85.0
    )


def test_speed_is_one_at_base():
    assert COMPUTE.speed(THETA_NODE, THETA_NODE.f_base) == pytest.approx(1.0)


def test_compute_speed_scales_linearly():
    assert COMPUTE.speed(THETA_NODE, 1.5) == pytest.approx(1.5 / 1.3)


def test_comm_speed_barely_responds_to_frequency():
    s_min = COMM.speed(THETA_NODE, THETA_NODE.f_min)
    s_max = COMM.speed(THETA_NODE, THETA_NODE.f_turbo)
    assert s_max / s_min < 1.06  # nearly flat


def test_comm_demand_nearly_flat():
    d_min = COMM.demand(THETA_NODE, THETA_NODE.f_min)
    d_max = COMM.demand(THETA_NODE, THETA_NODE.f_turbo)
    assert 95.0 < d_min < d_max < 110.0


def test_freq_for_cap_inverts_demand():
    cap = 130.0
    f = COMPUTE.freq_for_cap(THETA_NODE, cap)
    assert COMPUTE.demand(THETA_NODE, f) == pytest.approx(cap)


def test_freq_for_cap_clamps_to_turbo():
    f = COMPUTE.freq_for_cap(THETA_NODE, 500.0)
    assert f == pytest.approx(THETA_NODE.f_turbo)


def test_freq_for_cap_clamps_to_min():
    f = COMPUTE.freq_for_cap(THETA_NODE, 66.0)
    assert f == pytest.approx(THETA_NODE.f_min)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        PhaseKind("bad", k_watts=-1.0, gamma=1.0, beta=1.0)
    with pytest.raises(ValueError):
        PhaseKind("bad", k_watts=1.0, gamma=-1.0, beta=1.0)


# ---------------------------------------------------------- operating point
def test_headroom_regime_draws_demand_not_cap():
    # demand at turbo = 65 + 85*(1.5/1.3)^2 = ~178.2 W
    op = operating_point(COMPUTE, THETA_NODE, 215.0)
    demand_turbo = COMPUTE.demand(THETA_NODE, THETA_NODE.f_turbo)
    assert op.draw_watts[0] == pytest.approx(demand_turbo)
    assert op.draw_watts[0] < 215.0  # headroom left on the table
    assert op.speed[0] == pytest.approx(COMPUTE.speed(THETA_NODE, 1.5))


def test_throttled_regime_draws_exactly_cap():
    op = operating_point(COMPUTE, THETA_NODE, 120.0)
    assert op.draw_watts[0] == pytest.approx(120.0)
    assert op.speed[0] < 1.0  # below base-frequency speed (demand@base=150)


def test_starved_regime_duty_cycles():
    # demand at f_min = 65 + 85*(0.6/1.3)^2 = ~83.1 W; cap below that
    node = NodeSpec(p_floor_watts=65.0, rapl_min_watts=70.0)
    op = operating_point(COMPUTE, node, 72.0)
    assert op.draw_watts[0] == pytest.approx(72.0)
    demand_min = COMPUTE.demand(node, node.f_min)
    expected = COMPUTE.speed(node, node.f_min) * 72.0 / demand_min
    assert op.speed[0] == pytest.approx(expected)


def test_more_power_never_slows_down():
    caps = np.linspace(98.0, 215.0, 40)
    op = operating_point(COMPUTE, THETA_NODE, caps)
    assert np.all(np.diff(op.speed) >= -1e-12)


def test_draw_never_exceeds_cap_when_throttled_or_starved():
    caps = np.linspace(98.0, 215.0, 40)
    op = operating_point(COMPUTE, THETA_NODE, caps)
    demand_turbo = COMPUTE.demand(THETA_NODE, THETA_NODE.f_turbo)
    assert np.all(op.draw_watts <= np.maximum(caps, demand_turbo) + 1e-9)


def test_comm_phase_insensitive_to_cap():
    op_low = operating_point(COMM, THETA_NODE, 105.0)
    op_high = operating_point(COMM, THETA_NODE, 215.0)
    assert op_high.speed[0] / op_low.speed[0] < 1.05
    # comm can't use extra power: draw stays ~103 W at a 215 W cap
    assert op_high.draw_watts[0] < 106.0


def test_vectorized_caps():
    caps = np.array([100.0, 150.0, 215.0])
    op = operating_point(COMPUTE, THETA_NODE, caps)
    assert op.speed.shape == (3,)
    assert op.speed[0] < op.speed[1] <= op.speed[2]


def test_nonpositive_cap_rejected():
    with pytest.raises(ValueError):
        operating_point(COMPUTE, THETA_NODE, 0.0)


@pytest.mark.parametrize("cap", [float("nan"), [110.0, float("nan")]])
def test_nan_cap_rejected(cap):
    # NaN is not a positive cap: it must not resolve to a NaN speed
    with pytest.raises(ValueError, match="must be positive"):
        operating_point(COMPUTE, THETA_NODE, cap)
    with pytest.raises(ValueError, match="must be positive"):
        operating_point([COMPUTE, COMM], THETA_NODE, cap)


# ------------------------------------------------------- stacked kinds
def one_kind(kind, node, cap_watts):
    """The one-kind model as it was before kinds were stacked: the
    reference every row of a stacked evaluation must reproduce."""
    cap = np.atleast_1d(np.asarray(cap_watts, dtype=float))
    demand_turbo = float(kind.demand(node, node.f_turbo))
    demand_min = float(kind.demand(node, node.f_min))
    freq = kind.freq_for_cap(node, cap)
    speed = np.asarray(kind.speed(node, freq), dtype=float)
    draw = np.asarray(kind.demand(node, freq), dtype=float)
    unconstrained = cap >= demand_turbo
    speed = np.where(unconstrained, kind.speed(node, node.f_turbo), speed)
    draw = np.where(unconstrained, demand_turbo, draw)
    throttled = (~unconstrained) & (cap >= demand_min)
    draw = np.where(throttled, cap, draw)
    starved = cap < demand_min
    if np.any(starved):
        duty = cap / demand_min
        speed = np.where(starved, kind.speed(node, node.f_min) * duty, speed)
        draw = np.where(starved, cap, draw)
    return OperatingPoint(speed=speed, draw_watts=draw)


def assert_rows_match(kinds, node, caps):
    stacked = operating_point(kinds, node, caps)
    assert stacked.speed.shape == stacked.draw_watts.shape == (len(kinds), caps.size)
    for row, kind in enumerate(kinds):
        for one in (operating_point(kind, node, caps), one_kind(kind, node, caps)):
            assert np.array_equal(stacked.speed[row], one.speed), kind
            assert np.array_equal(stacked.draw_watts[row], one.draw_watts), kind


# exponents ndarray.__pow__ may route to sqrt/square/positive/ones_like,
# as floats and as ints, next to arbitrary ones
fast = st.sampled_from([0.0, 0.5, 1.0, 2.0, 0, 1, 2])
kinds = st.one_of(
    st.sampled_from(sorted(PHASES.values(), key=lambda k: k.name)),
    st.builds(
        PhaseKind,
        name=st.just("k"),
        # k_watts == 0 and gamma == 0 are the flat-demand kinds
        k_watts=st.one_of(st.just(0.0), st.floats(1.0, 120.0)),
        gamma=st.one_of(fast, st.floats(0.1, 4.0)),
        beta=st.one_of(fast, st.floats(0.0, 1.5)),
    ),
)


@given(
    kinds=st.lists(kinds, min_size=1, max_size=8),
    n=st.sampled_from([1, 64, 512]),
    cap=st.floats(1.0, 300.0),
    per_node=st.one_of(st.none(), st.integers(0, 2**16)),
)
@settings(max_examples=200, deadline=None)
def test_stacked_rows_equal_one_kind_evaluations(kinds, n, cap, per_node):
    # caps from 1 W to 300 W cover all three regimes: starved below
    # demand(f_min), throttled, and headroom above demand(f_turbo)
    if per_node is None:
        caps = np.full(n, cap)
    else:
        caps = np.random.default_rng(per_node).uniform(1.0, 300.0, size=n)
    assert_rows_match(kinds, THETA_NODE, caps)


def test_every_phase_kind_stacks_in_every_regime():
    kinds = list(PHASES.values())
    caps = np.linspace(1.0, 300.0, 512)
    for kind in kinds:
        demand_min = kind.demand(THETA_NODE, THETA_NODE.f_min)
        demand_turbo = kind.demand(THETA_NODE, THETA_NODE.f_turbo)
        assert caps.min() < demand_min <= demand_turbo < caps.max()
    assert_rows_match(kinds, THETA_NODE, caps)
    assert_rows_match(kinds, THETA_NODE, caps[:1])


def test_one_kind_gives_node_arrays():
    caps = np.array([100.0, 150.0])
    assert operating_point(COMPUTE, THETA_NODE, caps).speed.shape == (2,)
    assert operating_point([COMPUTE], THETA_NODE, caps).speed.shape == (1, 2)


def test_stacked_nonpositive_cap_rejected():
    with pytest.raises(ValueError):
        operating_point([COMPUTE, COMM], THETA_NODE, [100.0, 0.0])


# ---------------------------------------------------- regime invariant
def three_regimes(kinds, node, cap_watts):
    """The stacked model with the draw of every regime written out:
    the demand curve at the resolved frequency, overwritten by the
    demand at turbo where the cap leaves headroom and by the cap where
    the node is throttled or duty-cycled."""
    single = isinstance(kinds, PhaseKind)
    kinds = (kinds,) if single else tuple(kinds)
    stack = _stack(kinds, node)
    k_watts = np.array([float(kind.k_watts) for kind in kinds])[:, None]
    gamma = _Powers([kind.gamma for kind in kinds])
    cap = np.atleast_1d(np.asarray(cap_watts, dtype=float))
    headroom = np.maximum(cap - node.p_floor_watts, 0.0)
    freq = stack.inverse(headroom / stack.k_inverse) * node.f_base
    freq = np.clip(freq, node.f_min, node.f_turbo)
    if stack.flat is not None:
        freq = np.where(stack.flat, node.f_turbo, freq)
    ratio = freq / node.f_base
    speed = stack.beta(ratio)
    draw = node.p_floor_watts + k_watts * gamma(ratio)
    unconstrained = cap >= stack.demand_turbo
    speed = np.where(unconstrained, stack.speed_turbo, speed)
    draw = np.where(unconstrained, stack.demand_turbo, draw)
    throttled = (~unconstrained) & (cap >= stack.demand_min)
    draw = np.where(throttled, cap, draw)
    starved = cap < stack.demand_min
    if starved.any():
        duty = cap / stack.demand_min
        speed = np.where(starved, stack.speed_min * duty, speed)
        draw = np.where(starved, cap, draw)
    if single:
        return OperatingPoint(speed=speed[0], draw_watts=draw[0])
    return OperatingPoint(speed=speed, draw_watts=draw)


PHASE_KINDS = sorted(PHASES.values(), key=lambda k: k.name)
#: each kind's regime boundaries, where a cap switches between the
#: demand at turbo and the cap itself
BOUNDARIES = sorted(
    {float(kind.demand(THETA_NODE, f)) for kind in PHASE_KINDS
     for f in (THETA_NODE.f_min, THETA_NODE.f_turbo)}
)
caps = st.one_of(
    st.floats(1.0, 400.0),
    st.sampled_from(BOUNDARIES),
    st.just(float("inf")),
)


@given(
    kinds=st.one_of(
        st.sampled_from(PHASE_KINDS),
        st.lists(st.sampled_from(PHASE_KINDS), min_size=1, max_size=8),
    ),
    caps=st.lists(caps, min_size=1, max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_draw_is_the_demand_at_turbo_or_the_cap(kinds, caps):
    caps = np.array(caps)
    op = operating_point(kinds, THETA_NODE, caps)
    ref = three_regimes(kinds, THETA_NODE, caps)
    assert op.speed.shape == op.draw_watts.shape == ref.speed.shape
    assert np.array_equal(op.speed, ref.speed)
    assert np.array_equal(op.draw_watts, ref.draw_watts)
    rows = [kinds] if isinstance(kinds, PhaseKind) else kinds
    draw = np.atleast_2d(op.draw_watts)
    for row, kind in zip(draw, rows):
        demand_turbo = float(kind.demand(THETA_NODE, THETA_NODE.f_turbo))
        assert ((row == demand_turbo) | (row == caps)).all(), kind


def test_every_phase_kind_draws_the_cap_up_to_its_turbo_demand():
    caps = np.array(BOUNDARIES + [1.0, 400.0, float("inf")])
    op = operating_point(PHASE_KINDS, THETA_NODE, caps)
    ref = three_regimes(PHASE_KINDS, THETA_NODE, caps)
    assert np.array_equal(op.speed, ref.speed)
    assert np.array_equal(op.draw_watts, ref.draw_watts)
    for row, kind in zip(op.draw_watts, PHASE_KINDS):
        demand_turbo = float(kind.demand(THETA_NODE, THETA_NODE.f_turbo))
        below = caps < demand_turbo
        assert np.array_equal(row[below], caps[below]), kind
        assert (row[~below] == demand_turbo).all(), kind
