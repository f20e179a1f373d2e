"""Shared-replica fast path: bit-identity, memoization, merge and the
per-job switch.

The headline property test pins the contract the fast path must keep:
a run with ``shared_replica=True`` is **bit-identical** to the fully
replicated run in virtual time, DES event count, thermo log, analysis
results and allocation log — for multiple controllers and rank counts.
"""

import numpy as np
import pytest

from repro.analysis import frame_from_system, make_analysis
from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController, TimeAwareController
from repro.insitu import (
    AnalysisEnsemble,
    InsituConfig,
    ReplicaKey,
    ReplicaOrderError,
    SharedReplica,
    merge_slices,
    run_insitu,
)
from repro.md import VelocityVerlet, water_ion_box
from repro.md.domain import Snapshot

CONTROLLERS = {
    "static": StaticController,
    "seesaw": SeeSAwController,
    "time-aware": TimeAwareController,
}

ALL_ANALYSES = ("rdf", "vacf", "msd", "msd1d", "msd2d")


def build_controller(kind, cfg):
    return CONTROLLERS[kind](
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )


def assert_tree_equal(a, b, path=""):
    """Exact (bitwise) equality over nested tuples/dicts of arrays."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_tree_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), f"{path}: arrays differ"
    else:
        assert a == b, f"{path}: {a} != {b}"


# ------------------------------------------------------------ property test


@pytest.mark.parametrize("kind", ["static", "seesaw"])
@pytest.mark.parametrize("ranks", [2, 4])
def test_shared_and_per_rank_runs_bit_identical(kind, ranks):
    cfg = InsituConfig(
        n_sim_ranks=ranks,
        n_ana_ranks=ranks,
        n_verlet_steps=6,
        seed=11,
        shared_replica=True,
    )
    cfg_off = InsituConfig(
        n_sim_ranks=ranks,
        n_ana_ranks=ranks,
        n_verlet_steps=6,
        seed=11,
        shared_replica=False,
    )
    fast = run_insitu(cfg, build_controller(kind, cfg))
    slow = run_insitu(cfg_off, build_controller(kind, cfg_off))

    assert fast.shared_replica and not slow.shared_replica
    # virtual time + DES trajectory
    assert fast.virtual_time_s == slow.virtual_time_s
    assert fast.events_executed == slow.events_executed
    # thermo log (exact float equality on every record)
    assert fast.thermo.records == slow.thermo.records
    # analysis science
    assert_tree_equal(fast.analysis_results, slow.analysis_results)
    # controller decisions
    assert len(fast.allocation_log) == len(slow.allocation_log)
    for (sa, aa), (sb, ab) in zip(fast.allocation_log, slow.allocation_log):
        assert sa == sb
        assert np.array_equal(aa.sim_caps_w, ab.sim_caps_w)
        assert np.array_equal(aa.ana_caps_w, ab.ana_caps_w)
    assert fast.verification_failures == slow.verification_failures == 0


def test_time_aware_controller_also_bit_identical():
    cfg = InsituConfig(
        n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, shared_replica=True
    )
    cfg_off = InsituConfig(
        n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, shared_replica=False
    )
    fast = run_insitu(cfg, build_controller("time-aware", cfg))
    slow = run_insitu(cfg_off, build_controller("time-aware", cfg_off))
    assert fast.virtual_time_s == slow.virtual_time_s
    assert fast.events_executed == slow.events_executed
    assert fast.thermo.records == slow.thermo.records


def test_fast_path_dedup_accounting():
    """N ranks, one integration: misses are rank-independent, hits scale
    with the redundant rank count."""
    cfg = InsituConfig(
        n_sim_ranks=4, n_ana_ranks=4, n_verlet_steps=6, shared_replica=True
    )
    res = run_insitu(cfg, build_controller("static", cfg))
    # misses: one per step + one snapshot batch + one ensemble update
    # per sync
    assert res.replica_misses == cfg.n_verlet_steps + 2 * cfg.n_syncs
    # every other access is a hit: (ranks-1) redundant requests each
    assert res.replica_hits == (cfg.n_sim_ranks - 1) * res.replica_misses


def test_dump_identical_between_modes(tmp_path):
    paths = {}
    for mode in (True, False):
        p = tmp_path / f"dump-{mode}.lammpstrj"
        cfg = InsituConfig(
            n_sim_ranks=2,
            n_ana_ranks=2,
            n_verlet_steps=4,
            dump_path=str(p),
            shared_replica=mode,
        )
        run_insitu(cfg, build_controller("static", cfg))
        paths[mode] = p
    assert paths[True].read_text() == paths[False].read_text()


# ------------------------------------------------------------ SharedReplica


def replica_key(**kw):
    defaults = dict(dim=1, seed=3, dt=0.0005, thermostat_t=1.0, n_sim_ranks=2)
    defaults.update(kw)
    return ReplicaKey(**defaults)


def test_step_report_memoized_and_ordered():
    replica = SharedReplica(replica_key())
    r1a, t1a = replica.step_report(1)
    r1b, t1b = replica.step_report(1)
    assert r1a is r1b and t1a is t1b
    assert replica.misses == 1 and replica.hits == 1
    with pytest.raises(ReplicaOrderError):
        replica.step_report(3)  # skipping step 2


def test_snapshots_memoized_and_state_checked():
    replica = SharedReplica(replica_key())
    batch = replica.snapshots(1, at_step=0)
    assert len(batch) == 2
    assert replica.snapshots(1, at_step=0) is batch
    # requesting sync 2 without having advanced the integrator is a
    # protocol violation, not a silent stale serve
    with pytest.raises(ReplicaOrderError):
        replica.snapshots(2, at_step=1)


def test_shared_snapshots_match_per_rank_extraction():
    key = replica_key(n_sim_ranks=4)
    replica = SharedReplica(key)
    batch = replica.snapshots(1, at_step=0)
    for rank in range(4):
        ref = replica.dd.snapshot(rank, step=1)
        got = batch[rank]
        assert np.array_equal(got.positions, ref.positions)
        assert np.array_equal(got.velocities, ref.velocities)
        assert np.array_equal(got.types, ref.types)
        assert np.array_equal(got.molecule_ids, ref.molecule_ids)
        assert np.array_equal(got.atom_ids, ref.atom_ids)


# ------------------------------------------------------------ merge_slices


def make_slices(n_ranks=3, seed=5):
    """Per-rank snapshots of a tiny synthetic system."""
    rng = np.random.default_rng(seed)
    n = 12
    positions = rng.normal(size=(n, 3))
    velocities = rng.normal(size=(n, 3))
    types = rng.integers(0, 3, size=n)
    mols = np.arange(n) // 3
    owners = rng.integers(0, n_ranks, size=n)
    slices = []
    for r in range(n_ranks):
        idx = np.where(owners == r)[0]
        slices.append(
            Snapshot(
                step=1,
                positions=positions[idx],
                velocities=velocities[idx],
                types=types[idx],
                molecule_ids=mols[idx],
                atom_ids=idx,
            )
        )
    return slices, positions, velocities, types, mols


def test_merge_slices_restores_global_order():
    slices, pos, vel, types, mols = make_slices()
    frame = merge_slices(slices, np.ones(3), time=0.5)
    assert np.array_equal(frame.positions, pos)
    assert np.array_equal(frame.velocities, vel)
    assert np.array_equal(frame.types, types)
    assert np.array_equal(frame.molecule_ids, mols)
    assert frame.time == 0.5


def test_merge_slices_out_of_order_gather():
    """An allgather may deliver slices in any rank order."""
    slices, pos, vel, types, mols = make_slices()
    shuffled = [slices[2], slices[0], slices[1]]
    frame = merge_slices(shuffled, np.ones(3), time=1.0)
    assert np.array_equal(frame.positions, pos)
    assert np.array_equal(frame.velocities, vel)
    assert np.array_equal(frame.types, types)


def test_merge_slices_single_slice():
    slices, pos, vel, types, mols = make_slices(n_ranks=1)
    (only,) = slices
    frame = merge_slices([only], np.ones(3), time=2.0)
    assert np.array_equal(frame.positions, pos)
    assert frame.n_atoms == len(pos)


# ------------------------------------------------------------ ensemble


def run_frames(n_frames=4, seed=6):
    system = water_ion_box(dim=1, seed=seed)
    integ = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    frames = []
    for s in range(1, n_frames + 1):
        integ.step()
        frames.append(frame_from_system(system, step=s, time=s * 0.0005))
    return frames


def test_ensemble_matches_per_rank_analyses_all_five():
    frames = run_frames()
    ensemble = AnalysisEnsemble(ALL_ANALYSES)
    reference = [make_analysis(n) for n in ALL_ANALYSES]
    for sync, frame in enumerate(frames, start=1):
        work = ensemble.update(sync, lambda f=frame: f)
        for a in reference:
            a.update(frame)
            assert work[a.name] == a.work_estimate
    assert_tree_equal(
        ensemble.results(), {a.name: a.result() for a in reference}
    )


def test_ensemble_update_runs_once_per_sync():
    frames = run_frames(n_frames=2)
    ensemble = AnalysisEnsemble(("rdf", "msd"))
    calls = [0]

    def factory():
        calls[0] += 1
        return frames[0]

    w1 = ensemble.update(1, factory)
    w2 = ensemble.update(1, factory)
    assert calls[0] == 1  # merge ran once
    assert w1 is w2
    assert ensemble.hits == 1 and ensemble.misses == 1
    with pytest.raises(ReplicaOrderError):
        ensemble.update(3, factory)  # skipped sync 2


# ------------------------------------------------------------ switches


def test_shared_replica_is_the_default():
    assert InsituConfig().shared_replica is True


def test_metrics_counters_record_dedup():
    from repro.metrics import MetricRegistry, use_metrics

    cfg = InsituConfig(
        n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, shared_replica=True
    )
    registry = MetricRegistry()
    with use_metrics(registry):
        res = run_insitu(cfg, build_controller("static", cfg))
    report = registry.report().to_json()
    counters = report["counters"]
    assert counters["insitu.replica.hits"] == res.replica_hits > 0
    assert counters["insitu.replica.misses"] == res.replica_misses > 0
