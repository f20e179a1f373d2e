"""Pinned trajectory fingerprints: the DES/power fast paths must be
bit-identical to the pre-optimization engine.

The hex digests below were captured from the unoptimized code (handle
-object heap, per-rank collective wakeups, uncached operating points)
on the same seeds. Every optimization since — slotted dispatch,
cancellation compaction, coalesced collectives, operating-point
caching, the single-segment executor fast path — is required to leave
these trajectories byte-for-byte unchanged. A digest change here means
the physics moved, not just the speed: refresh only with a deliberate,
documented behavior change.
"""

import dataclasses
import hashlib

from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController
from repro.experiments.runner import build_controller, improvement, run_specs
from repro.insitu.coupler import InsituConfig, run_insitu
from repro.power.rapl import CapMode
from repro.scenario import JobParams, ScenarioSpec
from repro.workloads import JobConfig, run_job


def _digest(values) -> str:
    """SHA-256 over exact float bit patterns (float.hex) and ints."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def job_fingerprint(result) -> str:
    values = [result.total_time_s, result.controller_name, len(result.syncs)]
    # tolist() rows are Python int/float tuples in SYNC_DTYPE field order
    for row in result.syncs.tolist():
        values += row
    return _digest(values)


def trace_fingerprint(result) -> str:
    values = []
    for trace in (result.sim_trace, result.ana_trace):
        values.append(len(trace))
        for segment in trace.segments():
            values += list(segment)
    return _digest(values)


def insitu_fingerprint(result) -> str:
    values = [result.virtual_time_s, result.verification_failures]
    for step, alloc in result.allocation_log:
        values += [step, alloc.sim_caps_w.tobytes(), alloc.ana_caps_w.tobytes()]
    values += [repr(obs) for obs in result.observation_log]
    return _digest(values)


# Captured from the pre-optimization engine (see module docstring).
EXPECTED_JOB16 = {
    "static": "a0d6fb7bd9154d9d",
    "seesaw": "138b2de07a178aff",
    "power-aware": "366bafffa4b2bc33",
    "time-aware": "0a49d8975b77e6e4",
}
EXPECTED_JOB256_SEESAW = "65a6f9498574dcff"
# The job16 runs' sim/ana PowerTrace segments with collect_traces on,
# captured from the per-phase executor loop before phase programs were
# resolved in one stacked pass.
EXPECTED_JOB16_TRACES = {
    "static": "5ba59b4397555116",
    "seesaw": "672a68832b8ff77f",
    "power-aware": "ecc18f8be6fca821",
    "time-aware": "d86fd366f1e7d12d",
}
EXPECTED_INSITU = {
    "seesaw": "8222761c1569878c",
    "static": "8cfe6d3433c4a19e",
}
EXPECTED_INSITU_VIRTUAL_TIME_S = {
    "seesaw": 3.9209505489312075,
    "static": 4.104174966619667,
}
# SHA-256 over two-node proxy cells (one node per partition), each
# contributing repr(total_time_s) then its syncs array's bytes, in the
# order of _two_node_cells(). Captured from the vectorized per-phase
# executor, before one-node domains got their scalar kernel: these
# cells reach it through execute_program's pending-phase path.
EXPECTED_TWO_NODE_CELLS = (
    "8ee9838c3f93e8044a9ad19a6ff68dad047e63a9226b5dd01d81c6f49dbc3f05"
)
# Seeded headline values, pinned exactly: SeeSAw's paired improvement
# over static at a high-gain and a faded cap of the Fig. 8 sweep, and
# the virtual runtime of an 8-node and a Fig. 5-scale 1024-node SeeSAw
# job.
EXPECTED_FIG8_IMPROVEMENT_PCT = {
    110.0: 6.196659056024103,
    140.0: 2.06100791407023,
}
EXPECTED_SEESAW_TIME_S = [
    (JobConfig(n_nodes=8, n_verlet_steps=40, seed=7), 2068.5250601541993),
    (
        JobConfig(
            analyses=("all",), dim=36, n_nodes=1024, n_verlet_steps=60, seed=17
        ),
        526.1896163805794,
    ),
]


def _job16_cfg() -> JobConfig:
    return JobConfig(
        analyses=("full_msd", "vacf"),
        dim=16,
        n_nodes=16,
        n_verlet_steps=30,
        seed=11,
    )


def test_proxy_job_trajectories_pinned():
    for name, expected in EXPECTED_JOB16.items():
        cfg = _job16_cfg()
        result = run_job(cfg, build_controller(name, cfg))
        assert job_fingerprint(result) == expected, name


def test_proxy_job_power_traces_pinned():
    for name, expected in EXPECTED_JOB16_TRACES.items():
        cfg = dataclasses.replace(_job16_cfg(), collect_traces=True)
        result = run_job(cfg, build_controller(name, cfg))
        assert trace_fingerprint(result) == expected, name
        # tracing observes the run without changing it
        assert job_fingerprint(result) == EXPECTED_JOB16[name], name


def test_proxy_job_256_node_trajectory_pinned():
    cfg = JobConfig(
        analyses=("all",), dim=36, n_nodes=256, n_verlet_steps=20, seed=17
    )
    result = run_job(cfg, build_controller("seesaw", cfg))
    assert job_fingerprint(result) == EXPECTED_JOB256_SEESAW


def _two_node_cells():
    for name in ("static", "seesaw", "power-aware", "time-aware"):
        for mode in (CapMode.NONE, CapMode.LONG, CapMode.LONG_SHORT):
            for j in (1, 2):
                yield name, JobConfig(
                    analyses=("all",),
                    cap_mode=mode,
                    dim=16,
                    j=j,
                    n_nodes=2,
                    n_verlet_steps=60,
                    seed=11,
                )


def test_two_node_proxy_cells_pinned():
    h = hashlib.sha256()
    for name, cfg in _two_node_cells():
        result = run_job(cfg, build_controller(name, cfg))
        h.update(repr(result.total_time_s).encode())
        h.update(result.syncs.tobytes())
    assert h.hexdigest() == EXPECTED_TWO_NODE_CELLS


def test_insitu_trajectories_pinned():
    for name, cls in (("seesaw", SeeSAwController), ("static", StaticController)):
        cfg = InsituConfig(
            n_sim_ranks=2, n_ana_ranks=2, dim=1, n_verlet_steps=6, j=1
        )
        controller = cls(
            cfg.power_cap_w * cfg.world_size,
            cfg.n_sim_ranks,
            cfg.n_ana_ranks,
            THETA_NODE,
        )
        result = run_insitu(cfg, controller)
        assert insitu_fingerprint(result) == EXPECTED_INSITU[name], name
        assert result.virtual_time_s == EXPECTED_INSITU_VIRTUAL_TIME_S[name], name


def test_fig8_cap_sweep_improvements_pinned():
    for cap, expected in EXPECTED_FIG8_IMPROVEMENT_PCT.items():
        spec = ScenarioSpec(
            name=f"fig8/cap{cap}",
            approach="seesaw",
            baseline_sim_share=0.5,
            job=JobParams(
                analyses=("all_msd",),
                dim=16,
                n_nodes=128,
                n_verlet_steps=60,
                budget_per_node_w=cap,
                seed=88,
            ),
        )
        assert improvement(spec, run_specs([spec])[0]) == expected, cap


def test_seesaw_job_virtual_times_pinned():
    for cfg, expected in EXPECTED_SEESAW_TIME_S:
        result = run_job(cfg, build_controller("seesaw", cfg))
        assert result.total_time_s == expected, cfg.n_nodes
