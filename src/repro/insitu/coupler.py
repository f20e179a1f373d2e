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

The replicas are bit-identical by construction and the controller,
the machine and the faults never touch their data, so the host-side
physics depends on the job's physics tuple alone. It is computed once
per tuple, before the DES starts, and memoized across calls
(:mod:`repro.insitu.replica`); the ranks replay that trajectory while
performing every *virtual* action individually, so virtual time, DES
events and the controller's logs are those of a live run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import MachineSpec, theta
from repro.core.controller import PowerController
from repro.des.engine import Engine
from repro.faults.injector import get_faults
from repro.md.thermo import ThermoLog, ThermoRecord
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
from repro.insitu.replica import TrajectoryKey, compute_trajectory, trajectory
from repro.polimer import poli_init_power_manager, poli_power_alloc
from repro.telemetry import get_tracer
from repro.workloads.profiles import PHASES

__all__ = ["InsituConfig", "InsituResult", "run_insitu"]


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
    #: of state of S"); one frame of the live system per
    #: synchronization, so such a call computes its own trajectory
    dump_path: str | None = None

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

    @property
    def trajectory_key(self) -> TrajectoryKey:
        """The physics tuple the job's trajectory depends on."""
        return TrajectoryKey(
            dim=self.dim,
            seed=self.seed,
            dt=self.dt,
            thermostat_t=self.thermostat_t,
            n_sim_ranks=self.n_sim_ranks,
            j=self.j,
            n_verlet_steps=self.n_verlet_steps,
            analyses=tuple(self.analyses),
        )


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
    #: rank requests served from the trajectory (every step report,
    #: snapshot batch and analysis update a rank replays)
    replica_hits: int = 0
    #: host computations this call made: one per Verlet step plus a
    #: snapshot batch and an analysis update per sync when it computed
    #: the trajectory, 0 when it replayed a memoized one
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
    managers: dict[int, object] = {}
    verification_failures = [0]

    # The physics, computed (or found in the memo) before the DES
    # starts; a dump needs the live system, so it computes its own.
    key = cfg.trajectory_key
    if cfg.dump_path is not None:
        traj = compute_trajectory(key, dump_path=cfg.dump_path)
        computed = True
    else:
        before = trajectory.cache_info().misses
        traj = trajectory(key)
        computed = trajectory.cache_info().misses != before

    # The null tracer's begin/end are no-ops, so the per-sync span
    # bookkeeping below costs a method call when tracing is off.
    tracer = get_tracer()

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

        if rank == 0:
            # analysis partition needs the box to rebuild frames
            yield comm.bcast(rank, traj.box_lengths, root=0)
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
            snap = traj.snapshots[sync - 1][rank]
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
                report, thermo_rec = traj.steps[(sync - 1) * cfg.j + k]
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
                    record = ThermoRecord(
                        step=thermo_rec.step,
                        temperature=thermo_rec.temperature,
                        kinetic_energy=thermo_rec.kinetic_energy,
                        potential_energy=total_pe,
                        total_energy=thermo_rec.kinetic_energy + total_pe,
                        density=thermo_rec.density,
                    )
                    thermo_out.append(record)
                step_span.end()
            if rank == 0:
                # world rank 0 made this sync's observation
                sync_span.end(slack_s=pm.observation_log[-1].slack_s)
            else:
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
        yield comm.bcast(rank, None, root=0)  # the box, as a live run ships it
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
            yield pm.part_comm.allgather(pm.part_rank, snap)
            exchange_span.end(atoms=snap.n_atoms)
            # step 7: the merge and analyses of this sync are in the
            # trajectory; every rank charges their measured work to its
            # own node
            for name, work in zip(cfg.analyses, traj.work[sync - 1]):
                analysis_span = tracer.begin(
                    f"insitu.analysis.{name}", cat="insitu", tid=tid
                )
                yield node.compute(
                    ANALYSIS_KIND[name], work * SECONDS_PER_ANALYSIS_OP[name]
                )
                analysis_span.end()
            sync_span.end()
        return None

    def main(rank: int, comm: Communicator):
        if rank < cfg.n_sim_ranks:
            return sim_rank(rank, comm)
        return ana_rank(rank, comm)

    faults = get_faults()
    fault_mark = faults.log_mark() if faults.enabled else 0
    world.run(main)
    pm0 = managers[0]
    # every rank replays each step / snapshot batch / analysis update of
    # the trajectory once
    hits = cfg.n_sim_ranks * traj.computations
    misses = traj.computations if computed else 0
    return InsituResult(
        config=cfg,
        virtual_time_s=engine.now,
        thermo=thermo_out,
        analysis_results=traj.analysis_results(),
        allocation_log=list(pm0.allocation_log),
        observation_log=list(pm0.observation_log),
        verification_failures=verification_failures[0],
        events_executed=engine.events_executed,
        replica_hits=hits,
        replica_misses=misses,
        fault_events=faults.log_since(fault_mark) if faults.enabled else [],
    )
