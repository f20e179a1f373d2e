"""Verlet-Splitanalysis in-situ coupler (paper §V) on simulated MPI.

Runs the *real* miniature MD engine and the *real* analyses through the
paper's 8-step per-Verlet-step protocol, space-shared across a
simulated MPI world, with full PoLiMER power management:

1. simulation ranks perform initial integration;
2. simulation sends particle coordinates and velocities to its paired
   analysis rank;
3. both partitions rebuild data structures;
4. simulation sends the particle count for verification;
5. both partitions update neighbor lists;
6. simulation computes forces and final integration;
7. analysis is invoked at the end of the time step;
8. thermodynamic output (collective + I/O).

Power instrumentation follows the paper's two-line recipe exactly:
``poli_init_power_manager(...)`` once, ``poli_power_alloc()`` before
each synchronization.

Execution model: every simulation rank advances an identical replica of
the global system (deterministic seeding) and ships its *domain slice*
at each synchronization; analysis ranks allgather the slices into a
full frame and run the analyses. Replicating the integration instead of
exchanging ghost atoms keeps this path compact — parallel force
decomposition is not what the paper studies — while exercising every
coupling mechanism the controllers interact with (partition split,
pairing, tagged exchange, count verification, collective thermo,
pre-synchronization allocation). Virtual compute durations come from
the engines' measured operation counts via :mod:`repro.insitu.costs`.

Because the replicas are bit-identical by construction, the host-side
physics is computed **once** by default and memoized across ranks (the
shared-replica fast path, :mod:`repro.insitu.replica`): one Verlet
integration per step and one analysis update per synchronization
instead of N of each, while every rank still performs all of its
*virtual* actions individually. ``InsituConfig(shared_replica=False)``
restores the fully replicated execution; both paths are pinned
bit-identical in virtual time, thermo, analysis results and allocation
decisions by ``tests/insitu/test_replica.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import Analysis, make_analysis
from repro.cluster.machine import MachineSpec, theta
from repro.core.controller import PowerController
from repro.des.engine import Engine
from repro.faults.injector import get_faults
from repro.md import (
    DomainDecomposition,
    VelocityVerlet,
    compute_thermo,
    water_ion_box,
    write_lammps_dump,
)
from repro.md.thermo import ThermoLog
from repro.mpi.comm import Communicator, MpiWorld
from repro.insitu.costs import (
    ANALYSIS_KIND,
    SECONDS_PER_ANALYSIS_OP,
    SECONDS_PER_ATOM_INTEGRATE,
    SECONDS_PER_ATOM_NEIGHBOR,
    SECONDS_PER_ATOM_THERMO,
    SECONDS_PER_EXCHANGE_ATOM,
    SECONDS_PER_PAIR,
)
from repro.insitu.replica import (
    AnalysisEnsemble,
    ReplicaKey,
    ReplicaPool,
    merge_slices,
)
from repro.metrics.registry import get_metrics
from repro.metrics.timeseries import PeriodicSampler
from repro.polimer import poli_init_power_manager, poli_power_alloc
from repro.telemetry import get_tracer
from repro.workloads.profiles import PHASES

#: virtual-time sampling period of the live power-split series —
#: comfortably finer than any compute phase in the miniature jobs
SAMPLE_PERIOD_S = 0.01

__all__ = ["InsituConfig", "InsituResult", "run_insitu"]

# kept under its old private name for the analysis-side merge
_merge_slices = merge_slices


@dataclass(frozen=True)
class InsituConfig:
    """A small-scale, real-computation in-situ job."""

    n_sim_ranks: int = 4
    n_ana_ranks: int = 4
    dim: int = 1
    n_verlet_steps: int = 10
    j: int = 1  #: Verlet steps between synchronizations
    analyses: tuple[str, ...] = ("rdf", "vacf", "msd")
    power_cap_w: float = 110.0
    dt: float = 0.0005
    seed: int = 2020
    thermostat_t: float | None = 1.0
    #: optional LAMMPS-dump trajectory path (step 8's "optional output
    #: of state of S"); one frame per synchronization, written by sim
    #: rank 0
    dump_path: str | None = None
    #: compute rank-invariant MD/analysis work once and share it across
    #: ranks (:mod:`repro.insitu.replica`); ``False`` runs every rank's
    #: own replica, the reference the fast path is pinned against
    shared_replica: bool = True

    def __post_init__(self) -> None:
        if self.n_sim_ranks != self.n_ana_ranks:
            # §VI-C: "the number of analysis and simulation ranks is
            # equal in all results" — pairing below relies on it.
            raise ValueError("sim and analysis rank counts must match")
        if self.n_sim_ranks < 1:
            raise ValueError("need at least one rank per partition")
        if self.j < 1 or self.n_verlet_steps < self.j:
            raise ValueError("invalid j / step count")

    @property
    def world_size(self) -> int:
        return self.n_sim_ranks + self.n_ana_ranks

    @property
    def n_syncs(self) -> int:
        return self.n_verlet_steps // self.j


@dataclass
class InsituResult:
    """Science + power-management outcome of an in-situ run."""

    config: InsituConfig
    virtual_time_s: float
    thermo: ThermoLog
    analysis_results: dict
    #: (step, Allocation) decisions (from the controller-carrying rank)
    allocation_log: list
    #: per-sync Observations as the controller saw them
    observation_log: list
    #: count-verification failures (step 4); always 0 in a correct run
    verification_failures: int = 0
    #: DES callbacks fired — deterministic for a given engine version
    events_executed: int = 0
    #: whether the shared-replica fast path was active
    shared_replica: bool = False
    #: replica memo hits/misses (0/0 on the per-rank path)
    replica_hits: int = 0
    replica_misses: int = 0
    #: injected fault-marker rows that fired during this run (empty
    #: unless a FaultInjector with a non-empty plan was installed)
    fault_events: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fault_events is None:
            self.fault_events = []


def run_insitu(
    cfg: InsituConfig,
    controller: PowerController,
    machine: MachineSpec | None = None,
) -> InsituResult:
    """Run the coupled job to completion and collect results."""
    machine = machine if machine is not None else theta()
    if controller.n_sim != cfg.n_sim_ranks or controller.n_ana != cfg.n_ana_ranks:
        raise ValueError("controller shape does not match the job")
    engine = Engine()
    world = MpiWorld(engine, cfg.world_size, cost=machine.interconnect())

    thermo_out = ThermoLog()
    analysis_out: dict = {}
    managers: dict[int, object] = {}
    verification_failures = [0]

    shared = cfg.shared_replica
    pool = ReplicaPool() if shared else None
    replica = (
        pool.acquire(
            ReplicaKey(
                dim=cfg.dim,
                seed=cfg.seed,
                dt=cfg.dt,
                thermostat_t=cfg.thermostat_t,
                n_sim_ranks=cfg.n_sim_ranks,
            )
        )
        if shared
        else None
    )
    ensemble = AnalysisEnsemble(cfg.analyses) if shared else None

    # The null tracer's begin/end are no-ops, so the per-sync span
    # bookkeeping below costs a method call when tracing is off.
    tracer = get_tracer()

    # Live Fig. 1-style power-split series: sample the lead ranks' caps
    # on a fixed virtual period. The sampler is a pure observer invoked
    # inline by the engine (never a heap event), and the probes return
    # None until the managers exist, so runs stay bit-identical.
    metrics = get_metrics()
    if metrics.enabled:

        def cap_probe(rank: int):
            def probe():
                pm = managers.get(rank)
                return None if pm is None else pm.node.current_cap_w

            return probe

        engine.attach_sampler(
            PeriodicSampler(
                metrics,
                SAMPLE_PERIOD_S,
                {
                    "power.cap.sim_w": cap_probe(0),
                    "power.cap.ana_w": cap_probe(cfg.n_sim_ranks),
                },
            )
        )

    def sim_rank(rank: int, comm: Communicator):
        tid = rank + 1
        pm = poli_init_power_manager(
            engine,
            comm,
            rank,
            master=0,
            power_cap_w=cfg.power_cap_w,
            node=machine.node,
            controller=controller if rank == 0 else None,
        )
        managers[rank] = pm
        yield from pm.initialize()

        if shared:
            system = replica.system
            integrator = None
            dd = None
        else:
            system = water_ion_box(dim=cfg.dim, seed=cfg.seed)
            integrator = VelocityVerlet(
                system, dt=cfg.dt, thermostat_t=cfg.thermostat_t
            )
            dd = DomainDecomposition(system, cfg.n_sim_ranks)
        if rank == 0:
            # analysis partition needs the box to rebuild frames
            yield comm.bcast(rank, system.box.lengths, root=0)
        else:
            yield comm.bcast(rank, None, root=0)
        node = pm.node
        pair_rank = cfg.n_sim_ranks + rank  # world rank of paired analysis

        for sync in range(1, cfg.n_syncs + 1):
            sync_span = tracer.begin(
                "insitu.sync", cat="insitu", tid=tid, sync=sync
            )
            # poli_power_alloc(); // synchronization  (paper §VI-C)
            yield from poli_power_alloc(pm)

            # steps 2-4: ship this rank's slice, rebuild, verify count
            exchange_span = tracer.begin(
                "insitu.exchange", cat="insitu", tid=tid
            )
            if shared:
                snap = replica.snapshots(sync, at_step=(sync - 1) * cfg.j)[
                    rank
                ]
            else:
                snap = dd.snapshot(rank, step=sync)
            yield comm.send(rank, dest=pair_rank, payload=snap, tag=sync)
            yield node.compute(
                PHASES["comm"], snap.n_atoms * SECONDS_PER_EXCHANGE_ATOM
            )
            yield comm.send(
                rank, dest=pair_rank, payload=snap.n_atoms, tag=10_000 + sync
            )
            exchange_span.end(atoms=snap.n_atoms)

            n_local = snap.n_atoms
            for k in range(cfg.j):
                step_span = tracer.begin(
                    "insitu.step", cat="insitu", tid=tid
                )
                # steps 1, 5, 6: integrate, neighbor, force
                if shared:
                    report, thermo_rec = replica.step_report(
                        (sync - 1) * cfg.j + k + 1
                    )
                else:
                    report = integrator.step()
                    # thermo is captured per-step on the owning replica
                    thermo_rec = (
                        compute_thermo(system, report) if rank == 0 else None
                    )
                yield node.compute(
                    PHASES["integrate"],
                    n_local * SECONDS_PER_ATOM_INTEGRATE,
                )
                if report.rebuilt_neighbors:
                    yield node.compute(
                        PHASES["neighbor"],
                        n_local * SECONDS_PER_ATOM_NEIGHBOR,
                    )
                yield node.compute(
                    PHASES["force"],
                    report.pair_count
                    / cfg.n_sim_ranks
                    * SECONDS_PER_PAIR,
                )
                # step 8: thermodynamic output — a real collective over
                # the simulation partition plus I/O time
                local_pe = report.potential_energy / cfg.n_sim_ranks
                total_pe = yield pm.part_comm.allreduce(
                    pm.part_rank, local_pe
                )
                yield node.compute(
                    PHASES["comm"], n_local * SECONDS_PER_ATOM_THERMO
                )
                if rank == 0:
                    # cross-rank reduced energy replaces the local one
                    record = type(thermo_rec)(
                        step=thermo_rec.step,
                        temperature=thermo_rec.temperature,
                        kinetic_energy=thermo_rec.kinetic_energy,
                        potential_energy=total_pe,
                        total_energy=thermo_rec.kinetic_energy + total_pe,
                        density=thermo_rec.density,
                    )
                    thermo_out.append(record)
                step_span.end()
            if rank == 0 and cfg.dump_path is not None:
                # step 8: optional output of the simulation state
                write_lammps_dump(cfg.dump_path, system, step=sync)
            sync_span.end()
        return None

    def ana_rank(rank: int, comm: Communicator):
        tid = rank + 1
        pm = poli_init_power_manager(
            engine,
            comm,
            rank,
            master=1,
            power_cap_w=cfg.power_cap_w,
            node=machine.node,
        )
        managers[rank] = pm
        yield from pm.initialize()
        box_lengths = yield comm.bcast(rank, None, root=0)
        analyses: list[Analysis] = (
            ensemble.analyses
            if shared
            else [make_analysis(name) for name in cfg.analyses]
        )
        node = pm.node
        local = rank - cfg.n_sim_ranks
        pair_rank = local  # world rank of paired simulation rank

        for sync in range(1, cfg.n_syncs + 1):
            sync_span = tracer.begin(
                "insitu.sync", cat="insitu", tid=tid, sync=sync
            )
            yield from poli_power_alloc(pm)

            exchange_span = tracer.begin(
                "insitu.exchange", cat="insitu", tid=tid
            )
            snap = yield comm.recv(rank, source=pair_rank, tag=sync)
            count = yield comm.recv(
                rank, source=pair_rank, tag=10_000 + sync
            )
            if count != snap.n_atoms:  # step-4 verification
                verification_failures[0] += 1
            slices = yield pm.part_comm.allgather(pm.part_rank, snap)
            exchange_span.end(atoms=snap.n_atoms)
            frame_time = sync * cfg.j * cfg.dt
            # step 7: run the analyses, charging measured work. On the
            # fast path the merge + updates run once per sync (first
            # rank to arrive); every rank still charges the shared
            # work estimate to its own node.
            if shared:
                work = ensemble.update(
                    sync,
                    lambda: merge_slices(
                        slices, box_lengths, time=frame_time
                    ),
                )
                for a in analyses:
                    analysis_span = tracer.begin(
                        f"insitu.analysis.{a.name}", cat="insitu", tid=tid
                    )
                    yield node.compute(
                        ANALYSIS_KIND[a.name],
                        work[a.name] * SECONDS_PER_ANALYSIS_OP[a.name],
                    )
                    analysis_span.end()
            else:
                frame = merge_slices(slices, box_lengths, time=frame_time)
                for a in analyses:
                    analysis_span = tracer.begin(
                        f"insitu.analysis.{a.name}", cat="insitu", tid=tid
                    )
                    a.update(frame)
                    yield node.compute(
                        ANALYSIS_KIND[a.name],
                        a.work_estimate * SECONDS_PER_ANALYSIS_OP[a.name],
                    )
                    analysis_span.end()
            sync_span.end()
        if local == 0:
            for a in analyses:
                analysis_out[a.name] = a.result()
        return None

    def main(rank: int, comm: Communicator):
        if rank < cfg.n_sim_ranks:
            return sim_rank(rank, comm)
        return ana_rank(rank, comm)

    faults = get_faults()
    fault_mark = faults.log_mark() if faults.enabled else 0
    world.run(main)
    pm0 = managers[0]
    if shared:
        hits, misses = pool.cache_stats()
        hits += ensemble.hits
        misses += ensemble.misses
    else:
        hits = misses = 0
    return InsituResult(
        config=cfg,
        virtual_time_s=engine.now,
        thermo=thermo_out,
        analysis_results=analysis_out,
        allocation_log=list(pm0.allocation_log),
        observation_log=list(pm0.observation_log),
        verification_failures=verification_failures[0],
        events_executed=engine.events_executed,
        shared_replica=shared,
        replica_hits=hits,
        replica_misses=misses,
        fault_events=faults.log_since(fault_mark) if faults.enabled else [],
    )
