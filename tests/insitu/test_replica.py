"""The replayed trajectory: per-rank equivalence, memoization,
isolation, accounting and the slice merge.

The coupler's premise is that the N simulation ranks' replicas are
interchangeable, so one computed trajectory stands for all of them. The
per-rank tests below step N independent :class:`VelocityVerlet`
replicas from the same seed, as the removed per-rank coupler path did,
and require the cached :class:`Trajectory` to match them bit for bit.
Whole ``run_insitu`` results are pinned separately, computed and
replayed, by ``test_insitu_fingerprints.py``.
"""

import copy

import numpy as np
import pytest

from repro.analysis import frame_from_system, make_analysis
from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController, TimeAwareController
from repro.insitu import InsituConfig, merge_slices, run_insitu, trajectory
from repro.insitu.replica import MEMO_SIZE, TrajectoryKey, compute_trajectory
from repro.md import (
    DomainDecomposition,
    VelocityVerlet,
    compute_thermo,
    water_ion_box,
    write_lammps_dump,
)
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


def assert_snapshot_equal(got: Snapshot, ref: Snapshot) -> None:
    assert got.step == ref.step
    for field in ("positions", "velocities", "types", "molecule_ids", "atom_ids"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def trajectory_key(**kw) -> TrajectoryKey:
    defaults = dict(
        dim=1,
        seed=3,
        dt=0.0005,
        thermostat_t=1.0,
        n_sim_ranks=2,
        j=1,
        n_verlet_steps=3,
        analyses=("rdf", "vacf", "msd"),
    )
    defaults.update(kw)
    return TrajectoryKey(**defaults)


# ------------------------------------------------ per-rank equivalence


def check_against_per_rank_replicas(cfg: InsituConfig, result) -> None:
    """Step ``n_sim_ranks`` independent replicas from the job's seed, as
    the per-rank coupler did (each rank its own integrator and its own
    slice; analyses over the merged slices), and require the trajectory
    the call replayed, and the call's results, to match bit for bit."""
    traj = trajectory(cfg.trajectory_key)
    replicas = []
    for _ in range(cfg.n_sim_ranks):
        system = water_ion_box(dim=cfg.dim, seed=cfg.seed)
        integrator = VelocityVerlet(system, dt=cfg.dt, thermostat_t=cfg.thermostat_t)
        replicas.append(
            (system, integrator, DomainDecomposition(system, cfg.n_sim_ranks))
        )
    analyses = [make_analysis(name) for name in cfg.analyses]
    box_lengths = replicas[0][0].box.lengths
    assert np.array_equal(traj.box_lengths, box_lengths)
    thermo = []
    for sync in range(1, cfg.n_syncs + 1):
        slices = [dd.snapshot(rank, step=sync) for rank, (_, _, dd) in enumerate(replicas)]
        for got, ref in zip(traj.snapshots[sync - 1], slices, strict=True):
            assert_snapshot_equal(got, ref)
        frame = merge_slices(slices, box_lengths, time=sync * cfg.j * cfg.dt)
        for a in analyses:
            a.update(frame)
        assert traj.work[sync - 1] == tuple(a.work_estimate for a in analyses)
        for k in range(cfg.j):
            reports = [integrator.step() for _, integrator, _ in replicas]
            got_report, got_record = traj.steps[(sync - 1) * cfg.j + k]
            assert all(report == got_report for report in reports)
            record = compute_thermo(replicas[0][0], reports[0])
            assert got_record == record
            thermo.append(record)
    assert_tree_equal(result.analysis_results, {a.name: a.result() for a in analyses})
    # the call's thermo rows carry the replicas' values; only the
    # potential energy is the cross-rank reduction
    assert [(r.step, r.temperature, r.kinetic_energy, r.density) for r in thermo] == [
        (r.step, r.temperature, r.kinetic_energy, r.density) for r in result.thermo.records
    ]
    assert result.verification_failures == 0


@pytest.mark.parametrize("kind", ["static", "seesaw"])
@pytest.mark.parametrize("ranks", [2, 4])
def test_shared_and_per_rank_runs_bit_identical(kind, ranks):
    cfg = InsituConfig(
        n_sim_ranks=ranks, n_ana_ranks=ranks, n_verlet_steps=6, seed=11
    )
    check_against_per_rank_replicas(cfg, run_insitu(cfg, build_controller(kind, cfg)))


def test_time_aware_controller_also_bit_identical():
    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, j=2)
    check_against_per_rank_replicas(
        cfg, run_insitu(cfg, build_controller("time-aware", cfg))
    )


def test_dump_identical_between_modes(tmp_path):
    """A dump call writes the live system at each sync end: the same
    bytes as a per-rank replica dumped by hand, whether or not the memo
    already holds the job's trajectory."""
    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, j=2)
    reference = tmp_path / "reference.lammpstrj"
    system = water_ion_box(dim=cfg.dim, seed=cfg.seed)
    integrator = VelocityVerlet(system, dt=cfg.dt, thermostat_t=cfg.thermostat_t)
    for sync in range(1, cfg.n_syncs + 1):
        for _ in range(cfg.j):
            integrator.step()
        write_lammps_dump(str(reference), system, step=sync)
    for warm in (False, True):
        trajectory.cache_clear()
        if warm:
            run_insitu(cfg, build_controller("static", cfg))
        path = tmp_path / f"dump-{warm}.lammpstrj"
        dump_cfg = InsituConfig(
            n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4, j=2, dump_path=str(path)
        )
        res = run_insitu(dump_cfg, build_controller("static", dump_cfg))
        assert path.read_bytes() == reference.read_bytes()
        # the dump call computed its own trajectory and cached nothing
        assert res.replica_misses == cfg.n_verlet_steps + 2 * cfg.n_syncs
        assert trajectory.cache_info().currsize == int(warm)


# ------------------------------------------------------------ Trajectory


def test_step_report_memoized_and_ordered():
    trajectory.cache_clear()
    key = trajectory_key()
    traj = trajectory(key)
    assert trajectory(key) is traj
    assert [report.step for report, _ in traj.steps] == [1, 2, 3]
    assert [record.step for _, record in traj.steps] == [1, 2, 3]
    assert traj.computations == 3 + 2 * 3


def test_snapshots_memoized_and_state_checked():
    """The cached batches are served as they are and cannot be written."""
    trajectory.cache_clear()
    key = trajectory_key(n_verlet_steps=2)
    traj = trajectory(key)
    assert len(traj.snapshots) == 2
    assert all(len(batch) == key.n_sim_ranks for batch in traj.snapshots)
    assert [batch[0].step for batch in traj.snapshots] == [1, 2]
    assert trajectory(key).snapshots[1] is traj.snapshots[1]
    for batch in traj.snapshots:
        for snap in batch:
            for field in ("positions", "velocities", "types", "molecule_ids", "atom_ids"):
                array = getattr(snap, field)
                assert not array.flags.writeable, field
                with pytest.raises(ValueError):
                    array[...] = 0
    assert not traj.box_lengths.flags.writeable


def test_shared_snapshots_match_per_rank_extraction():
    key = trajectory_key(n_sim_ranks=4, n_verlet_steps=2)
    traj = compute_trajectory(key)
    system = water_ion_box(dim=key.dim, seed=key.seed)
    integrator = VelocityVerlet(system, dt=key.dt, thermostat_t=key.thermostat_t)
    dd = DomainDecomposition(system, key.n_sim_ranks)
    for sync, batch in enumerate(traj.snapshots, start=1):
        for rank in range(key.n_sim_ranks):
            assert_snapshot_equal(batch[rank], dd.snapshot(rank, step=sync))
        integrator.step()


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


# ------------------------------------------------------------ analyses


def run_frames(n_frames=4, seed=6):
    system = water_ion_box(dim=1, seed=seed)
    integ = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    frames = []
    for s in range(1, n_frames + 1):
        integ.step()
        frames.append(frame_from_system(system, step=s, time=s * 0.0005))
    return frames


def test_ensemble_matches_per_rank_analyses_all_five():
    """All five analyses over the merged slices of a computed trajectory
    match each analysis updated on the whole system's frames."""
    key = trajectory_key(n_sim_ranks=3, n_verlet_steps=3, analyses=ALL_ANALYSES)
    traj = compute_trajectory(key)
    system = water_ion_box(dim=key.dim, seed=key.seed)
    integrator = VelocityVerlet(system, dt=key.dt, thermostat_t=key.thermostat_t)
    reference = [make_analysis(n) for n in ALL_ANALYSES]
    for sync in range(1, key.n_syncs + 1):
        frame = frame_from_system(system, step=sync, time=sync * key.j * key.dt)
        for a in reference:
            a.update(frame)
        assert traj.work[sync - 1] == tuple(a.work_estimate for a in reference)
        integrator.step()
    assert_tree_equal(traj.analysis_results(), {a.name: a.result() for a in reference})


def test_ensemble_update_runs_once_per_sync(monkeypatch):
    """Each analysis updates once per sync when the trajectory is
    computed, whatever the rank count, and not at all on a replay."""
    calls = []
    for name in ("rdf", "msd"):
        cls = type(make_analysis(name))
        original = cls.update

        def counted(self, frame, _original=original):
            calls.append(self.name)
            return _original(self, frame)

        monkeypatch.setattr(cls, "update", counted)
    cfg = InsituConfig(n_sim_ranks=4, n_ana_ranks=4, n_verlet_steps=2, analyses=("rdf", "msd"))
    trajectory.cache_clear()
    run_insitu(cfg, build_controller("static", cfg))
    assert sorted(calls) == ["msd", "msd", "rdf", "rdf"]
    run_insitu(cfg, build_controller("seesaw", cfg))
    assert len(calls) == 4


# ------------------------------------------------------------ isolation


def _scribble(value) -> None:
    """Overwrite every array of a nested result in place."""
    if isinstance(value, np.ndarray):
        value[...] = -1.0
    elif isinstance(value, dict):
        for item in value.values():
            _scribble(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _scribble(item)


def test_writing_into_a_result_leaves_later_replays_unchanged():
    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=3, analyses=ALL_ANALYSES)
    trajectory.cache_clear()
    first = run_insitu(cfg, build_controller("static", cfg))
    results = copy.deepcopy(first.analysis_results)
    records = list(first.thermo.records)
    _scribble(first.analysis_results)
    first.thermo.records.reverse()
    first.thermo.records.pop()
    later = run_insitu(cfg, build_controller("static", cfg))
    assert later.replica_misses == 0  # a replay of the same trajectory
    assert_tree_equal(later.analysis_results, results)
    assert later.thermo.records == records


def test_memo_holds_at_most_its_size():
    trajectory.cache_clear()
    keys = [
        trajectory_key(seed=seed, n_sim_ranks=1, n_verlet_steps=1)
        for seed in range(MEMO_SIZE + 2)
    ]
    for key in keys:
        trajectory(key)
        assert trajectory.cache_info().currsize <= MEMO_SIZE
    assert trajectory.cache_info().currsize == MEMO_SIZE
    # least recently used out: the first key is computed again
    misses = trajectory.cache_info().misses
    trajectory(keys[0])
    assert trajectory.cache_info().misses == misses + 1
    trajectory(keys[-1])
    assert trajectory.cache_info().misses == misses + 1


def test_failed_computation_caches_nothing():
    trajectory.cache_clear()
    cfg = InsituConfig(n_sim_ranks=1, n_ana_ranks=1, n_verlet_steps=1, analyses=("nope",))
    with pytest.raises(Exception):
        run_insitu(cfg, build_controller("static", cfg))
    assert trajectory.cache_info().currsize == 0


# ------------------------------------------------------------ accounting


def test_fast_path_dedup_accounting():
    """A computing call misses once per computation; a replaying call
    misses nothing. Both serve every rank request from the trajectory."""
    cfg = InsituConfig(n_sim_ranks=4, n_ana_ranks=4, n_verlet_steps=6)
    computations = cfg.n_verlet_steps + 2 * cfg.n_syncs
    trajectory.cache_clear()
    cold = run_insitu(cfg, build_controller("static", cfg))
    warm = run_insitu(cfg, build_controller("seesaw", cfg))
    assert cold.replica_misses == computations == 18
    assert warm.replica_misses == 0
    assert cold.replica_hits == warm.replica_hits == cfg.n_sim_ranks * computations


def test_metrics_counters_record_dedup():
    from repro.metrics import MetricRegistry, use_metrics

    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4)
    trajectory.cache_clear()
    counters = []
    for _ in range(2):
        registry = MetricRegistry()
        with use_metrics(registry):
            run_insitu(cfg, build_controller("static", cfg))
        counters.append(registry.report().to_json()["counters"])
    cold, warm = counters
    assert cold["insitu.replica.misses"] == 4 + 2 * 4
    assert warm["insitu.replica.misses"] == 0
    assert cold["insitu.replica.hits"] == warm["insitu.replica.hits"] == 2 * (4 + 2 * 4)
