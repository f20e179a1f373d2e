"""Campaign scale-out: longest-first must beat the FIFO/static split.

A skewed 32-cell sweep (24 light cells, 8 heavy ones submitted last —
the shape a real parameter sweep has when the big Table 1 cells come
after the smoke points) on 4 workers. A one-shot FIFO/static split
hands each worker a contiguous block of 8 cells, so the last block
holds all 8 heavies and its wall is at least 8 x ``HEAVY_S``; the
pool's longest-first queue spreads the heavies over every worker.
This test pins the advantage at >= 1.3x over that lower bound and is
the pool's only speed-up gate.

Cell cost is simulated with ``time.sleep`` proportional to the spec's
Verlet steps, so ``cell_units`` ranks cells exactly as they behave and
the measured gap is pure scheduling, not compute noise.
"""

import time

import pytest

from repro.campaign import CampaignEngine, CellSpec
from repro.workloads import JobConfig

N_WORKERS = 4
LIGHT_S = 0.01
HEAVY_S = 0.2
#: sleep per Verlet step; cell_units scales linearly in steps, so the
#: pool's cost estimates rank these cells perfectly
SLEEP_PER_STEP_S = 1e-3


def sleeping_run(spec):
    time.sleep(spec.cfg.n_verlet_steps * SLEEP_PER_STEP_S)
    return spec.cfg.seed


def skewed_specs():
    """24 light + 8 heavy cells, heavies last in submission order."""
    light = [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",),
                n_nodes=8,
                seed=seed,
                n_verlet_steps=int(LIGHT_S / SLEEP_PER_STEP_S),
            ),
        )
        for seed in range(1, 25)
    ]
    heavy = [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",),
                n_nodes=8,
                seed=seed,
                n_verlet_steps=int(HEAVY_S / SLEEP_PER_STEP_S),
            ),
        )
        for seed in range(25, 33)
    ]
    return light + heavy


def fifo_static_wall_s() -> float:
    """Lower bound on a FIFO/static split's wall: its slowest
    contiguous block of the submission order, with no dispatch cost."""
    specs = skewed_specs()
    block = -(-len(specs) // N_WORKERS)
    return max(
        sum(
            s.cfg.n_verlet_steps * SLEEP_PER_STEP_S
            for s in specs[i : i + block]
        )
        for i in range(0, len(specs), block)
    )


def _sweep_wall_s() -> float:
    engine = CampaignEngine(jobs=N_WORKERS, run_fn=sleeping_run)
    try:
        engine.run_cells(skewed_specs()[:N_WORKERS])  # warm the pool
        t0 = time.perf_counter()
        results = engine.run_cells(skewed_specs())
        wall = time.perf_counter() - t0
    finally:
        engine.close()
    assert results == [s.cfg.seed for s in skewed_specs()]
    return wall


def test_longest_first_beats_fifo_by_1_3x(benchmark):
    fifo_wall = fifo_static_wall_s()
    # the last block holds every heavy
    assert fifo_wall == pytest.approx(8 * HEAVY_S)
    lf_wall = [0.0]

    def lf_sweep():
        lf_wall[0] = _sweep_wall_s()

    benchmark.pedantic(lf_sweep, iterations=1, rounds=1, warmup_rounds=0)
    speedup = fifo_wall / max(lf_wall[0], 1e-9)
    print(
        f"\n[scale-out: fifo >= {fifo_wall:.2f}s, "
        f"longest-first {lf_wall[0]:.2f}s, speedup {speedup:.2f}x]"
    )
    # lower bound: ideal is ~3x on this shape; 1.3x leaves headroom for
    # slow CI machines while still catching a scheduler regression
    assert speedup >= 1.3


SLOW_S = 0.25


def deceptive_run(spec):
    """Every 8th cell is 50x slower than its cell units say."""
    time.sleep(SLOW_S if spec.cfg.seed % 8 == 0 else 0.005)
    return spec.cfg.seed


def test_mispredicted_costs_only_delay_their_own_worker():
    """When the a-priori estimates are wrong (identical estimates,
    wildly different actual cost), a slow cell must hold up only the
    worker running it: the others keep taking cells from the shared
    queue. Splitting the queue per worker up front instead would put
    all four slow cells (every 8th) on the last worker."""
    specs = [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",), n_nodes=8, seed=seed, n_verlet_steps=10
            ),
        )
        for seed in range(1, 33)
    ]
    engine = CampaignEngine(jobs=N_WORKERS, run_fn=deceptive_run)
    try:
        results = engine.run_cells(specs)
        stats = engine.scheduler_stats
    finally:
        engine.close()
    assert results == [s.cfg.seed for s in specs]
    assert stats is not None and stats.n_workers == N_WORKERS
    assert sum(w.cells for w in stats.workers) == 32
    # no worker runs two slow cells
    assert max(w.busy_s for w in stats.workers) < 2 * SLOW_S
    assert stats.utilization() > 0.3
