"""Microbenchmarks of the simulation substrate itself.

Unlike the figure benches (one-shot experiment regenerations), these
time the hot paths with pytest-benchmark's normal repeated sampling, so
substrate performance regressions show up as timing changes:

* discrete-event engine throughput, with a dispatch-rate floor that
  runs even under ``--benchmark-disable``,
* vectorized phase execution across a 512-node partition,
* a full 128-node proxy job,
* one Verlet step of the real MD engine,
* a simulated-MPI allreduce round.
"""

import time

import numpy as np

from perfbench.speed import reference_s, scale
from repro.cluster.node import THETA_NODE
from repro.core import StaticController
from repro.des import Delay, Engine, Process
from repro.md import VelocityVerlet, water_ion_box
from repro.mpi import MpiWorld
from repro.power.execution import execute_phase
from repro.power.rapl import RaplDomainArray
from repro.workloads import JobConfig, run_job
from repro.workloads.profiles import PHASES


def test_engine_event_throughput(benchmark):
    def run():
        eng = Engine()
        for i in range(10_000):
            eng.schedule(float(i), lambda: None)
        eng.run()
        return eng.events_executed

    assert benchmark(run) == 10_000


#: half the 3,580,829 events/s the slotted dispatch loop first measured:
#: that loop is worth >2x over the handle-object engine, so a 50% jitter
#: allowance still fails a return to the old design. The rate is at the
#: nominal machine speed of ``perfbench.speed``.
DISPATCH_FLOOR_EVENTS_PER_S = 1_790_415


def test_engine_dispatch_throughput_floor():
    """A 50,000-event self-rescheduling tick chain; the best of 3 fresh
    engines, after one warm-up off the clock, must clear the floor.

    A shared virtual machine runs the same code up to about twice as
    slowly in stretches, so each run's wall time is scaled by the speed
    probe of ``perfbench.speed``, measured just before and just after
    it, to the nominal machine speed the floor is stated at.
    """
    n = 50_000

    def events_per_s() -> tuple[float, float]:
        eng = Engine()
        fired = [0]

        def tick():
            fired[0] += 1
            if fired[0] < n:
                eng.schedule(0.001, tick)

        eng.schedule(0.0, tick)
        before = reference_s()
        t0 = time.perf_counter()
        eng.run()
        wall = time.perf_counter() - t0
        after = reference_s()
        assert eng.events_executed == n
        return n / wall, n / scale(wall, 0.5 * (before + after))

    events_per_s()
    raw, scaled = max((events_per_s() for _ in range(3)), key=lambda r: r[1])
    rates = f"{raw:,.0f} events/s raw, {scaled:,.0f} scaled to nominal speed"
    print(rates)
    assert scaled >= DISPATCH_FLOOR_EVENTS_PER_S, rates


def test_engine_cancellation_churn(benchmark):
    """Cap-change-storm shape: schedule a wave, cancel almost all of
    it, reschedule. Without compaction the heap grows with every wave
    and dead entries dominate pops; with it the run stays flat."""

    def run():
        eng = Engine()
        state = {"wave": 0}

        def storm():
            state["wave"] += 1
            handles = [
                eng.schedule(1.0 + i * 1e-6, lambda: None) for i in range(256)
            ]
            for h in handles[:-1]:
                eng.cancel(h)
            if state["wave"] < 50:
                eng.schedule(1e-3, storm)

        eng.schedule(0.0, storm)
        eng.run()
        return eng.compactions

    assert benchmark(run) > 0


def test_process_switch_throughput(benchmark):
    def run():
        eng = Engine()

        def body():
            for _ in range(2_000):
                yield Delay(0.001)

        Process(eng, body())
        eng.run()
        return eng.now

    assert benchmark(run) > 0


def test_vectorized_phase_execution_512_nodes(benchmark):
    dom = RaplDomainArray(THETA_NODE, 512, 110.0, actuation_delay_s=0.0)
    noise = np.random.default_rng(0).lognormal(0.0, 0.01, 512)

    def run():
        out = execute_phase(
            PHASES["force"], THETA_NODE, 2.0, dom, 0.0, noise_factors=noise
        )
        return out.slowest

    assert benchmark(run) > 0


def test_proxy_job_128_nodes(benchmark):
    def run():
        cfg = JobConfig(
            analyses=("full_msd",),
            dim=16,
            n_nodes=128,
            n_verlet_steps=100,
            seed=1,
        )
        ctl = StaticController(cfg.budget_w, cfg.n_sim, cfg.n_ana, THETA_NODE)
        return run_job(cfg, ctl).total_time_s

    assert benchmark(run) > 0


def test_md_verlet_step(benchmark):
    system = water_ion_box(dim=1, seed=1)
    integrator = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    integrator.run(5)  # settle neighbor list churn

    def run():
        return integrator.step().pair_count

    assert benchmark(run) > 0


def _force_loop_shaped_inputs(seed=7):
    """Pair indices/forces shaped like the miniature MD force loop: a
    settled water_ion_box neighbor interaction list."""
    system = water_ion_box(dim=1, seed=seed)
    integrator = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    integrator.run(5)
    rng = np.random.default_rng(seed)
    n_pairs = 4 * system.n_atoms  # typical pairs-per-atom of the box
    i = rng.integers(0, system.n_atoms, size=n_pairs)
    j = rng.integers(0, system.n_atoms, size=n_pairs)
    fvec = rng.normal(size=(n_pairs, 3))
    return system.n_atoms, i, j, fvec


def _add_at_reference(n, i, j, fvec):
    """The pre-optimization kernel: two np.add.at scatter passes."""
    forces = np.zeros((n, 3))
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return forces


def test_scatter_add_at_reference(benchmark):
    n, i, j, fvec = _force_loop_shaped_inputs()
    forces = benchmark(_add_at_reference, n, i, j, fvec)
    assert forces.shape == (n, 3)


def test_scatter_bincount_kernel(benchmark):
    from repro.util import scatter_add_pairs

    n, i, j, fvec = _force_loop_shaped_inputs()
    forces = benchmark(scatter_add_pairs, n, i, j, fvec)
    # the bincount kernel must reproduce the add.at chain bit-for-bit
    # on the force-loop shape (both accumulate per slot in encounter
    # order); 1e-12 is the pinned ceiling, equality is the observed fact
    reference = _add_at_reference(n, i, j, fvec)
    np.testing.assert_allclose(forces, reference, rtol=0.0, atol=1e-12)
    assert np.array_equal(forces, reference)


def test_mpi_allreduce_round(benchmark):
    def run():
        eng = Engine()
        world = MpiWorld(eng, 32)

        def main(rank, comm):
            total = 0
            for _ in range(20):
                total = yield comm.allreduce(rank, rank)
            return total

        results = world.run(main)
        return results[0]

    assert benchmark(run) == sum(range(32))
