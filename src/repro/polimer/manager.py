"""PoLiMER power manager: the distributed measurement/actuation loop.

PoLiMER (paper ref [41], extended in §VI-B) monitors power and time for
a distributed MPI application and applies caps via RAPL. Its in-situ
extension needs exactly two pieces of developer knowledge (§IV-B):

1. process identity — simulation or analysis (``master`` flag, exactly
   as in the paper's ``poli_init_power_manager`` snippet);
2. a call *before* each synchronization (``poli_power_alloc``).

One :class:`PowerManager` lives on every rank. ``initialize`` splits
the world communicator into partition sub-communicators (the paper's
in-situ frameworks already organize processes this way) and installs
the controller's initial allocation. ``power_alloc`` is the
measurement + decision + actuation collective:

* each rank reports (partition, work time since last release, energy
  counter, epoch time) — work time is measured at *arrival*, i.e.
  before any waiting, which is the instrumentation advantage SeeSAw
  exploits;
* world rank 0 runs the controller and broadcasts the allocation;
* every rank requests its own node's new cap (10 ms actuation applies).

The allgather/bcast pair is also what the paper's overhead figure
(Fig. 9) measures — its cost comes from the communicator's cost model
and is therefore part of every interval, exactly as in the paper
("overhead of allocating power itself is incorporated in the time and
power measurements").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.controller import PowerController
from repro.core.types import Allocation, Observation, PartitionMeasurement
from repro.des.engine import Engine
from repro.faults.injector import get_faults
from repro.mpi.comm import Communicator
from repro.polimer.noderuntime import NodeRuntime
from repro.telemetry import get_tracer
from repro.util.rng import RngStream

__all__ = ["PowerManager"]

#: fractional sigma of the epoch-time attribution jitter a system-level
#: (uninstrumented) observer suffers; see DESIGN.md §5 and the
#: time-aware controller's docstring
EPOCH_JITTER_SIGMA = 0.03


@dataclass
class _RankReport:
    master: int
    part_rank: int
    work_time_s: float
    epoch_time_s: float
    energy_j: float
    power_w: float
    #: sender's sync counter when the report was *measured*; rank 0
    #: compares it to the current sync index to detect stale re-sends
    seq: int = 0
    #: False when the report was lost in transit (measurement dropout)
    valid: bool = True


class PowerManager:
    """Per-rank handle to the distributed power-management protocol."""

    def __init__(
        self,
        engine: Engine,
        world: Communicator,
        rank: int,
        master: int,
        node_runtime: NodeRuntime,
        controller: PowerController | None = None,
        sensor_sigma_w: float = 1.5,
        epoch_jitter_sigma: float = EPOCH_JITTER_SIGMA,
        rng: RngStream | None = None,
        stale_max_age: int = 2,
    ) -> None:
        """``controller`` must be provided on world rank 0 and only
        there (it is the decision-maker; everyone else follows the
        broadcast)."""
        if (controller is not None) != (rank == 0):
            raise ValueError("exactly world rank 0 carries the controller")
        self.engine = engine
        self.world = world
        self.rank = rank
        self.master = master
        self.node = node_runtime
        self.controller = controller
        self.part_comm: Communicator | None = None
        self.part_rank: int | None = None
        self._rng = (rng if rng is not None else RngStream(1234 + rank)).child(
            f"polimer{rank}"
        )
        self._sensor_sigma_w = sensor_sigma_w
        self._epoch_jitter_sigma = epoch_jitter_sigma
        #: reports older than this many syncs are discarded as missing
        self.stale_max_age = stale_max_age
        #: last report this rank put on the wire (re-sent under a
        #: stale-measurement fault: a stuck monitor daemon)
        self._prev_report: _RankReport | None = None
        self._last_release = engine.now
        self._last_entry_t = engine.now
        self._last_entry_e = node_runtime.energy_counter_j()
        self._sync_index = 0
        # one trace lane per rank; lane 0 belongs to the engine
        self._trace_tid = rank + 1
        self._syncs_seen = 0  # per-rank (rank 0's _sync_index is global)
        node_runtime.trace_tid = self._trace_tid
        node_runtime.fault_rank = rank
        faults = get_faults()
        self._faults = faults if faults.enabled and faults.active else None
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        #: names this rank's partition on its trace records
        self._part = "sim" if master == 0 else "ana"
        if self._tracer is not None:
            self._tracer.name_thread(
                self._trace_tid, f"{self._part} rank {rank}"
            )
        #: allocation history (world rank 0 only): (step, Allocation)
        self.allocation_log: list[tuple[int, Allocation]] = []
        #: per-sync observations (world rank 0 only)
        self.observation_log: list[Observation] = []

    # ------------------------------------------------------------------
    def initialize(self):
        """Collective: split partition communicators, install initial caps.

        Mirrors ``poli_init_power_manager(comm, rank, master, cap)``.
        """
        self.part_comm = yield self.world.split(
            self.rank, color=self.master, key=self.rank
        )
        self.part_rank = self.part_comm.translate_world_rank(self.rank)
        if self.rank == 0:
            alloc = self.controller.initial_allocation()
            payload = (alloc.sim_caps_w, alloc.ana_caps_w)
        else:
            payload = None
        sim_caps, ana_caps = yield self.world.bcast(self.rank, payload, root=0)
        self.node.request_cap(self._my_cap(sim_caps, ana_caps))
        self._reset_interval()

    def _my_cap(self, sim_caps: np.ndarray, ana_caps: np.ndarray) -> float:
        caps = sim_caps if self.master == 0 else ana_caps
        return float(caps[self.part_rank])

    def _reset_interval(self) -> None:
        self._last_release = self.engine.now
        self._last_entry_t = self.engine.now
        self._last_entry_e = self.node.energy_counter_j()

    # ------------------------------------------------------------------
    def power_alloc(self):
        """Collective: measure, decide, actuate (``poli_power_alloc``).

        Call exactly once per synchronization, immediately *before* the
        simulation↔analysis exchange.
        """
        now = self.engine.now
        work_time = now - self._last_release
        epoch_time = now - self._last_entry_t
        # the span opens at *arrival* and closes at the bcast release:
        # exactly the sync-point wait SeeSAw's instrumentation excludes
        # from its work-time signal
        self._syncs_seen += 1
        span = (
            self._tracer.begin(
                "insitu.sync_wait",
                cat="insitu",
                tid=self._trace_tid,
                sync=self._syncs_seen,
            )
            if self._tracer is not None
            else None
        )
        energy = self.node.energy_counter_j()
        interval = max(now - self._last_entry_t, 1e-12)
        power = (energy - self._last_entry_e) / interval
        power += float(self._rng.normal(0.0, self._sensor_sigma_w))
        epoch_observed = epoch_time * float(
            self._rng.lognormal(0.0, self._epoch_jitter_sigma)
        )
        report = _RankReport(
            master=self.master,
            part_rank=self.part_rank,
            work_time_s=work_time,
            epoch_time_s=epoch_observed,
            energy_j=energy - self._last_entry_e,
            power_w=max(power, 1.0),
            seq=self._syncs_seen,
        )
        if self._faults is not None:
            meas_fault = self._faults.measurement(now, self.rank)
            if meas_fault is not None:
                fault_kind, magnitude = meas_fault
                if fault_kind == "meas_drop":
                    # lost in transit: the local measurement is fine,
                    # so future stale re-sends start from it
                    self._prev_report = report
                    report = replace(report, valid=False)
                elif fault_kind == "meas_stale":
                    # stuck monitor daemon: re-send the previous wire
                    # report; its seq keeps aging until discarded
                    if self._prev_report is not None:
                        report = self._prev_report
                elif fault_kind == "meas_garble":
                    report = replace(
                        report, power_w=max(report.power_w * magnitude, 1.0)
                    )
        if report.valid:
            self._prev_report = report
        reports = yield self.world.allgather(self.rank, report)

        payload = None
        if self.rank == 0:
            self._sync_index += 1
            obs = self._build_observation(reports)
            self.observation_log.append(obs)
            alloc = self.controller.observe(obs)
            if alloc is not None:
                self.allocation_log.append((self._sync_index, alloc))
                payload = (alloc.sim_caps_w, alloc.ana_caps_w)
        result = yield self.world.bcast(self.rank, payload, root=0)
        if result is not None:
            sim_caps, ana_caps = result
            self.node.request_cap(self._my_cap(sim_caps, ana_caps))
        if span is not None:
            # the work time is keyed by partition (sim_work_s /
            # ana_work_s) so the two fold into separate histograms
            span.end(
                wait_s=self.engine.now - now,
                **{f"{self._part}_work_s": work_time},
            )
        # measurement interval restarts at the release of the bcast
        self._last_release = self.engine.now
        self._last_entry_t = self.engine.now
        self._last_entry_e = self.node.energy_counter_j()

    # ------------------------------------------------------------------
    def _build_observation(self, reports: list[_RankReport]) -> Observation:
        """Aggregate per-rank reports into one :class:`Observation`.

        Under fault injection some reports may be invalid (dropped) or
        carry an old sequence number. Aggregation runs over the
        *surviving* reports — valid and no older than
        :attr:`stale_max_age` syncs — and the observation carries
        missing/stale counts so the controller can decide whether the
        remainder is sound enough to act on.
        """

        def build(master: int) -> tuple[PartitionMeasurement, int, int]:
            rs = sorted(
                (r for r in reports if r.master == master),
                key=lambda r: r.part_rank,
            )
            live = [
                r
                for r in rs
                if r.valid and (self._sync_index - r.seq) <= self.stale_max_age
            ]
            missing = len(rs) - len(live)
            stale = sum(1 for r in live if r.seq < self._sync_index)
            if not live:
                # every rank of the partition went dark this sync: a
                # degenerate, explicitly-empty measurement (controllers
                # hold on it rather than divide by zero)
                return (
                    PartitionMeasurement(
                        work_time_s=0.0,
                        energy_j=0.0,
                        interval_s=1e-9,
                        node_epoch_times_s=np.zeros(0),
                        node_power_w=np.zeros(0),
                    ),
                    missing,
                    stale,
                )
            work = max(r.work_time_s for r in live)
            interval = max(max(r.epoch_time_s for r in live), 1e-12)
            return (
                PartitionMeasurement(
                    work_time_s=work,
                    energy_j=sum(r.energy_j for r in live),
                    interval_s=interval,
                    node_epoch_times_s=np.array(
                        [r.epoch_time_s for r in live]
                    ),
                    node_power_w=np.array([r.power_w for r in live]),
                ),
                missing,
                stale,
            )

        sim, sim_missing, sim_stale = build(0)
        ana, ana_missing, ana_stale = build(1)
        return Observation(
            step=self._sync_index,
            sim=sim,
            ana=ana,
            sim_missing=sim_missing,
            ana_missing=ana_missing,
            sim_stale=sim_stale,
            ana_stale=ana_stale,
        )
