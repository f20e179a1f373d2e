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
from repro.power.execution import PhaseProgram, execute_phase, execute_program
from repro.power.model import operating_point
from repro.power.rapl import CapMode, RaplDomainArray
from repro.power.trace import PowerTrace
from repro.util.rng import RngStream
from repro.workloads.profiles import (
    PHASES,
    WorkPhase,
    analysis_work_phases,
    sim_step_phases,
)


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


def program(phases, *args):
    """``execute_program`` on a list of phases."""
    return execute_program(PhaseProgram(phases), *args)


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
    for run in (per_phase, program):
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
    spike_prob=st.sampled_from([0.0, 0.015, 0.5, 1.0]),
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
        program(phases, THETA_NODE, dom, 0.0, noise.phase_factor_pair)


def test_empty_program_is_zero():
    dom = domain_for(3, 110.0, 0.0)
    times, clean, energy = program(
        [], THETA_NODE, dom, 0.0, noise_model(3, 0, 0.0).phase_factor_pair
    )
    for a in (times, clean, energy):
        assert np.array_equal(a, np.zeros(3))


# ------------------------------------------------ operating-point tables
def spy_inversions(monkeypatch):
    """Record the kinds of every model inversion the executor makes."""
    calls = []
    inversion = execution.operating_point

    def spy(kinds, node, caps):
        calls.append(kinds)
        return inversion(kinds, node, caps)

    monkeypatch.setattr(execution, "operating_point", spy)
    return calls


def table(domain, program):
    return domain.op_cache[(program, id(THETA_NODE))]


def assert_table_of(domain, program, caps):
    """The cached table is ``program``'s under ``caps``, row for row."""
    op = operating_point(program.kinds, THETA_NODE, caps)
    cached = table(domain, program)
    assert np.array_equal(cached.speed, np.maximum(op.speed, 1e-12)[program.rows])
    assert np.array_equal(cached.draw_watts, op.draw_watts[program.rows])


def test_program_table_lives_for_one_cap_segment(monkeypatch):
    calls = spy_inversions(monkeypatch)
    n = 8
    dom = domain_for(n, 110.0, 0.0)
    noise = noise_model(n, 3, 0.5)
    program = PhaseProgram(SIM_STEP)
    for t in (0.0, 10.0):
        execute_program(program, THETA_NODE, dom, t, noise.phase_factor_pair)
    # one stacked inversion serves every phase of both runs
    assert calls == [program.kinds]
    first = table(dom, program)

    # an installed cap change re-resolves the table
    dom.request_caps(np.linspace(100.0, 160.0, n), now=20.0)
    execute_program(program, THETA_NODE, dom, 20.0, noise.phase_factor_pair)
    assert calls == [program.kinds] * 2
    assert table(dom, program) is not first
    assert_table_of(dom, program, dom.segment_at(20.0)[0])

    # a byte-identical re-request keeps it
    second = table(dom, program)
    dom.request_caps(np.linspace(100.0, 160.0, n), now=30.0)
    execute_program(program, THETA_NODE, dom, 30.0, noise.phase_factor_pair)
    assert calls == [program.kinds] * 2
    assert table(dom, program) is second


def test_pending_phase_resolves_the_program_table(monkeypatch):
    calls = spy_inversions(monkeypatch)
    dom = domain_for(4, 110.0, 0.1)
    program = PhaseProgram(SIM_STEP)
    dom.request_caps(140.0, now=0.0)
    execute_program(
        program, THETA_NODE, dom, 0.0, noise_model(4, 0, 0.0).phase_factor_pair
    )
    # before and after the actuation inside phase 0: no one-kind misses
    assert calls == [program.kinds] * 2


@pytest.mark.parametrize(
    "first, second",
    [
        # the simulation's setup and steady programs
        (sim_step_phases(16, 64, 128, 1), sim_step_phases(16, 64, 128, 3)),
        # analysis programs for different due sets
        (
            analysis_work_phases(["full_msd", "rdf"], 16, 64, 128),
            analysis_work_phases(["vacf"], 16, 64, 128),
        ),
    ],
)
@pytest.mark.parametrize("per_node", [None, 11])
def test_programs_on_one_domain_keep_their_own_tables(first, second, per_node):
    n = 64
    caps = caps_for(n, 120.0, per_node)
    programs = [PhaseProgram(first), PhaseProgram(second)]
    dom = domain_for(n, caps, 0.0)
    for run, program in enumerate(programs * 2):
        t = 5.0 * run
        got = execute_program(
            program, THETA_NODE, dom, t, noise_model(n, run, 0.5).phase_factor_pair
        )
        ref, _ = per_phase(
            program.phases, THETA_NODE, domain_for(n, caps, 0.0), t,
            noise_model(n, run, 0.5).phase_factor_pair,
        )
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)
    effective = dom.segment_at(0.0)[0]
    for program in programs:
        assert_table_of(dom, program, effective)
