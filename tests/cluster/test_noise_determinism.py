"""Property tests: NoiseModel determinism, stream independence, pickling.

The fault subsystem samples its plans the same way the noise model
draws its factors (name-addressed ``RngStream`` children), so these
properties underpin the chaos seed-replay guarantee too.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NoiseModel
from repro.cluster.noise import NoiseConfig
from repro.power.rapl import CapMode
from repro.util.rng import RngStream

seeds = st.integers(min_value=0, max_value=2**31 - 1)
n_nodes = st.integers(min_value=1, max_value=16)
modes = st.sampled_from(list(CapMode))


def draws(model: NoiseModel, rounds: int = 3):
    """A deterministic transcript of the model's stochastic outputs."""
    out = [model.job_factor, model.run_factor, model.node_factors.copy()]
    for _ in range(rounds):
        spiked, clean = model.phase_factor_pair()
        out.append(spiked.copy())
        out.append(clean.copy())
        out.append(np.asarray(model.sensor_noise(size=model.n_nodes)))
    return out


def assert_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x), np.asarray(y)), (x, y)


@given(seeds, n_nodes, modes)
@settings(max_examples=50, deadline=None)
def test_equal_seeds_bit_identical(seed, n, mode):
    a = NoiseModel(RngStream(seed), n, mode)
    b = NoiseModel(RngStream(seed), n, mode)
    assert_identical(draws(a), draws(b))


@given(seeds, n_nodes, modes)
@settings(max_examples=30, deadline=None)
def test_sensor_stream_independent_of_phase_stream(seed, n, mode):
    # consuming extra sensor draws must not shift the phase sequence
    # (and vice versa): the streams are name-addressed children
    a = NoiseModel(RngStream(seed), n, mode)
    b = NoiseModel(RngStream(seed), n, mode)
    for _ in range(5):
        b.sensor_noise(size=17)  # burn sensor draws on b only
    for _ in range(3):
        assert np.array_equal(a.phase_factors(), b.phase_factors())


@given(seeds, n_nodes, modes)
@settings(max_examples=30, deadline=None)
def test_job_stream_independent_of_phase_and_sensor(seed, n, mode):
    # the job-level draws happen in the constructor from their own
    # child stream; phase/sensor consumption cannot retroactively
    # change them, and two models from the same root seed agree
    a = NoiseModel(RngStream(seed), n, mode)
    for _ in range(4):
        a.phase_factors()
        a.sensor_noise(size=3)
    b = NoiseModel(RngStream(seed), n, mode)
    assert a.job_factor == b.job_factor
    assert np.array_equal(a.node_factors, b.node_factors)


@given(seeds, n_nodes, modes)
@settings(max_examples=25, deadline=None)
def test_pickle_round_trip_preserves_stream_state(seed, n, mode):
    a = NoiseModel(RngStream(seed), n, mode)
    b = NoiseModel(RngStream(seed), n, mode)
    # advance both mid-stream, then snapshot one through pickle
    for _ in range(2):
        a.phase_factor_pair()
        b.phase_factor_pair()
        a.sensor_noise(size=n)
        b.sensor_noise(size=n)
    restored = pickle.loads(pickle.dumps(b))
    assert_identical(draws(a), draws(restored))


def test_different_seeds_differ():
    a = NoiseModel(RngStream(0), 8, CapMode.LONG)
    b = NoiseModel(RngStream(1), 8, CapMode.LONG)
    assert not np.array_equal(a.phase_factors(), b.phase_factors())


def test_phase_factor_pair_shares_one_array_unless_a_burst_fired():
    # execute_program skips the clean-time algebra on this identity
    never = NoiseModel(
        RngStream(3), 8, CapMode.LONG, NoiseConfig(spike_prob=0.0)
    )
    spiked, clean = never.phase_factor_pair()
    assert spiked is clean
    always = NoiseModel(
        RngStream(3), 8, CapMode.LONG, NoiseConfig(spike_prob=1.0)
    )
    spiked, clean = always.phase_factor_pair()
    assert spiked is not clean
    assert int((spiked != clean).sum()) == 1


@pytest.mark.parametrize("spike_prob", [0.015, 0.5])
@pytest.mark.parametrize("mode", list(CapMode))
def test_phase_pairs_match_a_uniform_drawing_reference(spike_prob, mode):
    # the spike test draws Generator.random(); Generator.uniform(0, 1)
    # computes 0 + 1 * next_double from the same stream word
    n, seed = 16, 11
    cfg = NoiseConfig(spike_prob=spike_prob)
    phase = RngStream(seed, name="phase")
    model = NoiseModel(RngStream(5), n, mode, cfg, phase_rng=phase)

    ref = RngStream(seed, name="phase").generator
    run_factor = float(ref.lognormal(0.0, cfg.run_sigma[mode]))
    base = model.job_factor * run_factor * model.node_factors
    spikes = 0
    for _ in range(1000):
        clean = base * ref.lognormal(0.0, cfg.phase_sigma[mode], size=n)
        spiked = clean
        if ref.uniform() < spike_prob:
            spiked = clean.copy()
            spiked[int(ref.integers(0, n))] *= cfg.spike_scale
            spikes += 1
        got_spiked, got_clean = model.phase_factor_pair()
        assert np.array_equal(got_spiked, spiked)
        assert np.array_equal(got_clean, clean)
    assert spikes > 0
    assert phase.generator.bit_generator.state == ref.bit_generator.state
