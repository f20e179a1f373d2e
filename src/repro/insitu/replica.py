"""Shared-replica fast path: compute rank-invariant work once.

The coupler's execution model (see :mod:`repro.insitu.coupler`) has
every simulation rank advance an *identical replica* of the global
system — deterministic seeding makes the N per-rank integrators
bit-for-bit interchangeable — and every analysis rank run the same
analyses over the same merged frame. A ``run_insitu`` job with 2×N
ranks therefore performs N identical Verlet integrations per step and
N identical analysis updates per synchronization: host wall time scales
as O(ranks × atoms) for physics that is rank-invariant by construction.

This module deduplicates that host-side work while leaving the
*virtual* execution untouched:

* :class:`SharedReplica` owns the one real :class:`VelocityVerlet`
  integrator + :class:`ParticleSystem` + :class:`DomainDecomposition`
  and memoizes per-step :class:`StepReport`/thermo records and per-sync
  domain snapshots. The first rank to request a step advances the
  integrator; every other rank gets the cached result.
* :class:`AnalysisEnsemble` owns one instance of each configured
  analysis and runs ``update(frame)`` once per synchronization (one
  ``_merge_slices`` call instead of N), returning the shared per-
  analysis work estimates to every analysis rank.
* :class:`ReplicaPool` hands out replicas keyed by the physics tuple
  ``(dim, seed, dt, thermostat_t, n_sim_ranks)`` so a run's ranks all
  resolve to the same instance.

Why virtual-time bit-identity is preserved: ranks still perform every
*virtual* action individually — the sends, allgathers, bcasts,
``node.compute`` charges and controller interactions are untouched —
and all virtual durations derive from values (atom counts, pair counts,
rebuild flags, analysis work estimates) that are bit-identical between
the memoized results and what each rank's private replica would have
produced. The DES event trajectory, thermo log, analysis results and
allocation log are therefore unchanged; the property tests in
``tests/insitu/test_replica.py`` pin this for multiple controllers and
rank counts.

Ordering safety: the per-sync world collective (``poli_power_alloc``)
and the per-step thermo allreduce mean no rank can request step ``t+1``
(or sync ``s+1`` snapshots) before every rank has requested step ``t``
(sync ``s``), so lazy advance-on-first-request is sound. The memoizers
still assert monotone requests and raise :class:`ReplicaOrderError` on
any out-of-order access rather than silently serving stale state.

The fast path is on by default; ``InsituConfig(shared_replica=False)``
selects the fully replicated per-rank execution for one job, which is
the reference the equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import Analysis, Frame, make_analysis
from repro.md import DomainDecomposition, VelocityVerlet, compute_thermo, water_ion_box
from repro.md.domain import Snapshot
from repro.md.thermo import ThermoRecord
from repro.md.verlet import StepReport
from repro.metrics.registry import get_metrics

__all__ = [
    "AnalysisEnsemble",
    "ReplicaKey",
    "ReplicaOrderError",
    "ReplicaPool",
    "SharedReplica",
]

class ReplicaOrderError(RuntimeError):
    """A rank requested replica state out of protocol order."""


@dataclass(frozen=True)
class ReplicaKey:
    """The physics tuple that makes two sim-rank replicas identical."""

    dim: int
    seed: int
    dt: float
    thermostat_t: float | None
    n_sim_ranks: int


class SharedReplica:
    """One real MD replica memoized across all simulation ranks."""

    def __init__(self, key: ReplicaKey) -> None:
        self.key = key
        self.system = water_ion_box(dim=key.dim, seed=key.seed)
        self.integrator = VelocityVerlet(
            self.system, dt=key.dt, thermostat_t=key.thermostat_t
        )
        self.dd = DomainDecomposition(self.system, key.n_sim_ranks)
        #: step -> (StepReport, ThermoRecord); the thermo record is
        #: captured at advance time because another rank may advance the
        #: live system before rank 0 gets to its thermo output
        self._steps: dict[int, tuple[StepReport, ThermoRecord]] = {}
        #: sync -> per-rank snapshots (previous sync evicted on miss)
        self._snapshots: dict[int, list[Snapshot]] = {}
        self.hits = 0
        self.misses = 0
        metrics = get_metrics()
        self._metrics = metrics if metrics.enabled else None

    # ------------------------------------------------------------------
    def _hit(self) -> None:
        self.hits += 1
        if self._metrics is not None:
            self._metrics.counter("insitu.replica.hits").inc()

    def _miss(self) -> None:
        self.misses += 1
        if self._metrics is not None:
            self._metrics.counter("insitu.replica.misses").inc()

    # ------------------------------------------------------------------
    def step_report(self, step: int) -> tuple[StepReport, ThermoRecord]:
        """The report + thermo record of Verlet step ``step`` (1-based).

        The first request advances the shared integrator; the memoized
        pair is served to every other rank. Advancing more than one step
        at a time would mean a rank skipped the per-step collective, so
        it is rejected.
        """
        cached = self._steps.get(step)
        if cached is not None:
            self._hit()
            return cached
        if step != self.integrator.step_count + 1:
            raise ReplicaOrderError(
                f"step {step} requested with integrator at "
                f"{self.integrator.step_count}"
            )
        self._miss()
        report = self.integrator.step()
        record = compute_thermo(self.system, report)
        result = (report, record)
        self._steps[step] = result
        return result

    def snapshots(self, sync: int, at_step: int) -> list[Snapshot]:
        """All ranks' domain snapshots for synchronization ``sync``.

        ``at_step`` is the Verlet step count the system must be at when
        the batch is extracted (``(sync - 1) * j`` for the coupler's
        protocol); a mismatch on first request means a rank raced past
        the synchronization collective.
        """
        cached = self._snapshots.get(sync)
        if cached is not None:
            self._hit()
            return cached
        if self.integrator.step_count != at_step:
            raise ReplicaOrderError(
                f"sync {sync} snapshots requested at step "
                f"{self.integrator.step_count}, expected {at_step}"
            )
        self._miss()
        # by the time any rank reaches sync s+1 every rank has consumed
        # sync s (power_alloc is a world collective), so keep one batch
        self._snapshots.clear()
        batch = self.dd.snapshot_all(step=sync)
        self._snapshots[sync] = batch
        return batch


class AnalysisEnsemble:
    """One set of analyses updated once per sync, shared across ranks."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.analyses: list[Analysis] = [make_analysis(n) for n in names]
        self._work: dict[int, dict[str, int]] = {}
        self._last_sync = 0
        self.hits = 0
        self.misses = 0
        metrics = get_metrics()
        self._metrics = metrics if metrics.enabled else None

    def update(self, sync: int, frame_factory) -> dict[str, int]:
        """Per-analysis work estimates for ``sync``.

        ``frame_factory`` builds the merged frame; it is only called on
        the first request per sync, so the slice merge also runs once.
        """
        cached = self._work.get(sync)
        if cached is not None:
            self.hits += 1
            if self._metrics is not None:
                self._metrics.counter("insitu.replica.hits").inc()
            return cached
        if sync != self._last_sync + 1:
            raise ReplicaOrderError(
                f"analysis sync {sync} requested after {self._last_sync}"
            )
        self.misses += 1
        if self._metrics is not None:
            self._metrics.counter("insitu.replica.misses").inc()
        frame: Frame = frame_factory()
        work: dict[str, int] = {}
        for a in self.analyses:
            a.update(frame)
            work[a.name] = a.work_estimate
        self._work[sync] = work
        self._last_sync = sync
        return work

    def results(self) -> dict:
        return {a.name: a.result() for a in self.analyses}


class ReplicaPool:
    """Replicas keyed by their physics tuple.

    A pool is scoped to one ``run_insitu`` invocation: every sim rank
    of a job acquires the same :class:`SharedReplica` because the job's
    config maps to one :class:`ReplicaKey`. (Replicas are *stateful*
    trajectories, so a pool must never be shared between runs — a fresh
    run must start from step 0.)
    """

    def __init__(self) -> None:
        self._replicas: dict[ReplicaKey, SharedReplica] = {}

    def acquire(self, key: ReplicaKey) -> SharedReplica:
        replica = self._replicas.get(key)
        if replica is None:
            replica = SharedReplica(key)
            self._replicas[key] = replica
        return replica

    @property
    def replicas(self) -> int:
        return len(self._replicas)

    def cache_stats(self) -> tuple[int, int]:
        """Aggregate (hits, misses) across the pool's replicas."""
        hits = sum(r.hits for r in self._replicas.values())
        misses = sum(r.misses for r in self._replicas.values())
        return hits, misses


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
