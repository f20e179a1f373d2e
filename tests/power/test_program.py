"""``execute_program`` against the per-phase ``execute_phase`` loop.

The stacked pass over settled phases must be bit-identical to running
every phase through ``execute_phase`` from the mean frontier, the way
the proxy ran its phase programs before the closed form existed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.power.execution as execution
from repro.cluster.noise import NoiseConfig, NoiseModel
from repro.cluster.node import THETA_NODE
from repro.power.execution import execute_phase, execute_program
from repro.power.rapl import CapMode, RaplDomainArray
from repro.power.trace import PowerTrace
from repro.util.rng import RngStream
from repro.workloads.profiles import PHASES, WorkPhase


def per_phase(phases, node, domain, t_start, factor_pair, trace=None):
    """Reference: one ``execute_phase`` per phase; returns the phase
    start times too."""
    n = domain.n_nodes
    times = np.zeros(n)
    clean_times = np.zeros(n)
    energy = np.zeros(n)
    starts = []
    t = t_start
    for phase in phases:
        starts.append(t)
        spiked, clean = factor_pair()
        outcome = execute_phase(
            phase.kind, node, phase.work_s, domain, t_start=t, noise_factors=spiked
        )
        if trace is not None and outcome.slowest > 0:
            mean_dur = float(outcome.durations.mean())
            if mean_dur > 0:
                draw = float(outcome.energy_joules.mean()) / mean_dur
                trace.add(t, t + mean_dur, draw)
        times += outcome.durations
        clean_times += outcome.durations * (clean / spiked)
        energy += outcome.energy_joules
        t = t_start + float(times.mean())
    return (times, clean_times, energy), starts


def noise_model(n, seed, spike_prob):
    cfg = NoiseConfig(spike_prob=spike_prob)
    return NoiseModel(RngStream(seed, name="prog"), n, CapMode.LONG, cfg)


def caps_for(n, value, per_node_seed):
    if per_node_seed is None:
        return value
    rng = np.random.default_rng(per_node_seed)
    return rng.uniform(98.0, 215.0, size=n)


def domain_for(n, caps, delay):
    return RaplDomainArray(THETA_NODE, n, caps, actuation_delay_s=delay)


def run_both(phases, n, caps, new_caps, pending, seed, spike_prob, t_start):
    """Run the reference and ``execute_program`` on identical domains
    and noise streams; ``pending`` places a cap request: None, "start"
    (lands on the program's start), "inside" (inside phase 0),
    ("boundary", k) (on phase k's start) or "after" (after the last
    phase)."""
    now, delay = t_start, 0.0
    if pending == "inside":
        first = next((p.work_s for p in phases if p.work_s > 0), 1.0)
        delay = 0.3 * first
    elif pending == "after":
        delay = 1e7
    elif isinstance(pending, tuple):
        _, starts = per_phase(
            phases, THETA_NODE, domain_for(n, caps, 0.0), t_start,
            noise_model(n, seed, spike_prob).phase_factor_pair,
        )
        now, delay = 0.0, starts[pending[1] % len(starts)]

    out = []
    for run in (per_phase, execute_program):
        dom = domain_for(n, caps, delay)
        if pending is not None:
            dom.request_caps(new_caps, now=now)
        trace = PowerTrace()
        result = run(
            phases, THETA_NODE, dom, t_start,
            noise_model(n, seed, spike_prob).phase_factor_pair, trace,
        )
        if run is per_phase:
            result = result[0]
        out.append((result, trace.segments(), dom.requested_caps))
    return out


def assert_identical(ref, got):
    (ref_arrays, ref_trace, ref_caps), (arrays, trace, caps) = ref, got
    for name, a, b in zip(("times", "clean", "energy"), ref_arrays, arrays):
        assert np.array_equal(a, b), name
    assert ref_trace == trace
    assert np.array_equal(ref_caps, caps)


programs = st.lists(
    st.builds(
        WorkPhase,
        kind=st.sampled_from(sorted(PHASES.values(), key=lambda k: k.name)),
        work_s=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    ),
    min_size=1,
    max_size=12,
)
pendings = st.one_of(
    st.sampled_from([None, "start", "inside", "after"]),
    st.tuples(st.just("boundary"), st.integers(0, 11)),
)


@given(
    phases=programs,
    n=st.sampled_from([1, 64, 512]),
    cap=st.floats(98.0, 215.0),
    per_node=st.one_of(st.none(), st.integers(0, 2**16)),
    new_cap=st.floats(98.0, 215.0),
    new_per_node=st.one_of(st.none(), st.integers(0, 2**16)),
    pending=pendings,
    seed=st.integers(0, 2**16),
    spike_prob=st.sampled_from([0.0, 0.5]),
    t_start=st.sampled_from([0.0, 3.7, 1234.5]),
)
@settings(max_examples=150, deadline=None)
def test_program_matches_per_phase_loop(
    phases, n, cap, per_node, new_cap, new_per_node, pending, seed,
    spike_prob, t_start,
):
    ref, got = run_both(
        phases, n, caps_for(n, cap, per_node), caps_for(n, new_cap, new_per_node),
        pending, seed, spike_prob, t_start,
    )
    assert_identical(ref, got)


SIM_STEP = [
    WorkPhase(PHASES["integrate"], 0.26),
    WorkPhase(PHASES["neighbor"], 0.55),
    WorkPhase(PHASES["comm"], 0.26),
    WorkPhase(PHASES["force"], 1.8),
    WorkPhase(PHASES["comm"], 0.39),
]


@pytest.mark.parametrize(
    "pending, stepped",
    [
        (None, 0),
        ("start", 0),
        ("inside", 1),
        (("boundary", 2), 2),
        ("after", len(SIM_STEP)),
    ],
)
@pytest.mark.parametrize("n", [1, 64])
def test_only_phases_starting_under_a_pending_request_step(
    monkeypatch, pending, stepped, n
):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["t_start"])
        return execute_phase(*args, **kwargs)

    monkeypatch.setattr(execution, "execute_phase", counted)
    ref, got = run_both(SIM_STEP, n, 110.0, 140.0, pending, 7, 0.5, 2.0)
    assert_identical(ref, got)
    assert len(calls) == stepped


def test_negative_work_rejected_in_settled_phases():
    dom = domain_for(4, 110.0, 0.0)
    noise = noise_model(4, 0, 0.0)
    # WorkPhase rejects negative work itself; any phase-like object may
    # be passed, and the stacked pass must reject it like execute_phase
    phases = [
        WorkPhase(PHASES["force"], 1.0),
        SimpleNamespace(kind=PHASES["comm"], work_s=-1.0),
    ]
    with pytest.raises(ValueError, match="negative work"):
        execute_program(phases, THETA_NODE, dom, 0.0, noise.phase_factor_pair)


def test_empty_program_is_zero():
    dom = domain_for(3, 110.0, 0.0)
    times, clean, energy = execute_program(
        [], THETA_NODE, dom, 0.0, noise_model(3, 0, 0.0).phase_factor_pair
    )
    for a in (times, clean, energy):
        assert np.array_equal(a, np.zeros(3))
