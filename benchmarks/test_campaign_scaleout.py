"""Campaign scale-out: work stealing must beat the FIFO/static split.

A skewed 32-cell sweep (24 light cells, 8 heavy ones submitted last —
the shape a real parameter sweep has when the big Table 1 cells come
after the smoke points) on 4 workers. The one-shot FIFO/static
baseline parks every heavy cell on the same worker's contiguous block;
the cost-model-informed work-stealing scheduler spreads them
longest-first and steals the stragglers. This test pins the advantage
at >= 1.3x and is the scheduler's only speed-up gate.

Cell cost is simulated with ``time.sleep`` proportional to the spec's
Verlet steps, so the a-priori cost model ranks cells exactly as they
behave and the measured gap is pure scheduling, not compute noise.
"""

import time

from repro.campaign import CampaignEngine, CellSpec
from repro.workloads import JobConfig

N_WORKERS = 4
LIGHT_S = 0.01
HEAVY_S = 0.2
#: sleep per Verlet step; cell_units scales linearly in steps, so the
#: scheduler's cost estimates rank these cells perfectly
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


def _sweep_wall_s(**policy) -> float:
    engine = CampaignEngine(jobs=N_WORKERS, run_fn=sleeping_run, **policy)
    try:
        engine.run_cells(skewed_specs()[:N_WORKERS])  # warm the pool
        t0 = time.perf_counter()
        results = engine.run_cells(skewed_specs())
        wall = time.perf_counter() - t0
    finally:
        engine.close()
    assert results == [s.cfg.seed for s in skewed_specs()]
    return wall


def test_work_stealing_beats_fifo_by_1_3x(benchmark):
    fifo_wall = _sweep_wall_s(
        longest_first=False, steal=False, static_chunks=True
    )
    ws_wall = [0.0]

    def ws_sweep():
        ws_wall[0] = _sweep_wall_s()

    benchmark.pedantic(ws_sweep, iterations=1, rounds=1, warmup_rounds=0)
    speedup = fifo_wall / max(ws_wall[0], 1e-9)
    print(
        f"\n[scale-out: fifo {fifo_wall:.2f}s, "
        f"work-stealing {ws_wall[0]:.2f}s, speedup {speedup:.2f}x]"
    )
    # lower bound: ideal is ~3x on this shape; 1.3x leaves headroom for
    # slow CI machines while still catching a scheduler regression
    assert speedup >= 1.3


def deceptive_run(spec):
    """Every 8th cell is 50x slower than the cost model believes."""
    time.sleep(0.25 if spec.cfg.seed % 8 == 0 else 0.005)
    return spec.cfg.seed


def test_mispredicted_costs_trigger_steals():
    """When the a-priori estimates are wrong (identical estimates,
    wildly different actual cost), idle workers must steal the stuck
    worker's queue instead of waiting it out."""
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
    assert stats.steals >= 1
    assert stats.stolen_cells >= 1
    assert stats.utilization() > 0.3
