"""One trajectory per physics key, computed once and replayed.

The coupler's execution model (see :mod:`repro.insitu.coupler`) has
every simulation rank advance an identical replica of the global system
and every analysis rank run the same analyses over the same merged
frame. None of that physics depends on anything but the job's physics
tuple (:class:`TrajectoryKey`): the controller only moves power between
the partitions, the machine only prices time, and no fault kind touches
MD or analysis data (:mod:`repro.faults.plan`).

So the physics of a job is built once, eagerly, before the DES starts:
:func:`compute_trajectory` integrates the replica and runs the analyses
in the protocol's order and returns an immutable :class:`Trajectory`
(box, per-step reports and thermo records, per-sync snapshot batches and
analysis work estimates, final analysis results). :func:`trajectory`
keeps the last :data:`MEMO_SIZE` trajectories in a process-wide LRU, so
every ``run_insitu`` call with the same key replays the same one.

Replay keeps the virtual execution whole: ranks still make every send,
collective, ``node.compute`` charge and controller call, and each
virtual duration derives from values the trajectory holds bit for bit
(atom counts, pair counts, rebuild flags, analysis work estimates). A
trajectory is read-only: its arrays are not writeable, and each call
gets its own copy of the analysis results, so no call can change what a
later one replays. ``tests/insitu/test_insitu_fingerprints.py`` pins
whole results, computed and replayed, against the lazy per-request
memo this module replaced.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from repro.analysis import Frame, make_analysis
from repro.md import (
    DomainDecomposition,
    VelocityVerlet,
    compute_thermo,
    water_ion_box,
    write_lammps_dump,
)
from repro.md.domain import Snapshot
from repro.md.thermo import ThermoRecord
from repro.md.verlet import StepReport

__all__ = [
    "MEMO_SIZE",
    "Trajectory",
    "TrajectoryKey",
    "compute_trajectory",
    "merge_slices",
    "trajectory",
]

#: trajectories the process-wide memo keeps (least recently used out)
MEMO_SIZE = 4


@dataclass(frozen=True)
class TrajectoryKey:
    """The physics tuple that fixes an in-situ job's trajectory."""

    dim: int
    seed: int
    dt: float
    thermostat_t: float | None
    n_sim_ranks: int
    j: int
    n_verlet_steps: int
    analyses: tuple[str, ...]

    @property
    def n_syncs(self) -> int:
        return self.n_verlet_steps // self.j


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The read-only physics of one in-situ job."""

    box_lengths: np.ndarray
    #: (report, thermo record) of Verlet steps 1, 2, ...
    steps: tuple[tuple[StepReport, ThermoRecord], ...]
    #: per sync, the rank-ordered snapshot batch it ships
    snapshots: tuple[tuple[Snapshot, ...], ...]
    #: per sync, each analysis's work estimate, in the key's order
    work: tuple[tuple[int, ...], ...]
    #: (name, final result) of each analysis, in the key's order
    results: tuple[tuple[str, object], ...]

    @property
    def computations(self) -> int:
        """Host computations behind it: one per Verlet step, one
        snapshot batch and one analysis update per sync."""
        return len(self.steps) + 2 * len(self.snapshots)

    def analysis_results(self) -> dict:
        """A private, writeable copy of the final analysis results."""
        return {name: copy.deepcopy(result) for name, result in self.results}


def _read_only(value):
    """Mark every array in a nested result not writeable, in place."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, Snapshot):
        for field in dataclasses.fields(value):
            _read_only(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            _read_only(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _read_only(item)
    return value


def compute_trajectory(
    key: TrajectoryKey, dump_path: str | None = None
) -> Trajectory:
    """Integrate and analyse ``key``'s job in the coupler's order.

    The sync-``s`` batch is taken at step ``(s - 1) * j``, merged and
    analysed, and then ``j`` steps run, each followed by its thermo
    record. ``dump_path`` appends one LAMMPS-dump frame of the live
    system at the end of every sync (step 8's optional output).
    """
    system = water_ion_box(dim=key.dim, seed=key.seed)
    integrator = VelocityVerlet(system, dt=key.dt, thermostat_t=key.thermostat_t)
    dd = DomainDecomposition(system, key.n_sim_ranks)
    analyses = [make_analysis(name) for name in key.analyses]
    box_lengths = _read_only(system.box.lengths.copy())
    steps, snapshots, work = [], [], []
    for sync in range(1, key.n_syncs + 1):
        batch = dd.snapshot_all(step=sync)
        frame = merge_slices(batch, box_lengths, time=sync * key.j * key.dt)
        for a in analyses:
            a.update(frame)
        work.append(tuple(a.work_estimate for a in analyses))
        snapshots.append(_read_only(tuple(batch)))
        for _ in range(key.j):
            report = integrator.step()
            steps.append((report, compute_thermo(system, report)))
        if dump_path is not None:
            write_lammps_dump(dump_path, system, step=sync)
    return Trajectory(
        box_lengths=box_lengths,
        steps=tuple(steps),
        snapshots=tuple(snapshots),
        work=tuple(work),
        results=_read_only(tuple((a.name, a.result()) for a in analyses)),
    )


@functools.lru_cache(maxsize=MEMO_SIZE)
def trajectory(key: TrajectoryKey) -> Trajectory:
    """``key``'s trajectory, computed on first use and then memoized."""
    return compute_trajectory(key)


def merge_slices(
    slices: list[Snapshot], box_lengths: np.ndarray, time: float
) -> Frame:
    """Rebuild a whole-system frame from per-rank snapshots.

    Slices may arrive in any rank order; atoms are restored to global
    id order so the merged frame is independent of gather order.
    """
    order = np.argsort(np.concatenate([s.atom_ids for s in slices]))
    positions = np.concatenate([s.positions for s in slices])[order]
    velocities = np.concatenate([s.velocities for s in slices])[order]
    types = np.concatenate([s.types for s in slices])[order]
    mols = np.concatenate([s.molecule_ids for s in slices])[order]
    return Frame(
        step=slices[0].step,
        time=time,
        box_lengths=box_lengths,
        positions=positions,
        velocities=velocities,
        types=types,
        molecule_ids=mols,
    )
