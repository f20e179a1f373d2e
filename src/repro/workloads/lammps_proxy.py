"""LAMMPS+Splitanalysis proxy job: the scaled experiment engine.

Runs a full power-managed in-situ job — 128 to 1024 nodes, 400 Verlet
steps — in milliseconds of host time by evaluating both partitions'
phase programs with vectorized per-node numpy math instead of per-rank
DES processes. The physics (phase power model, RAPL actuation, noise,
interconnect costs) is shared with the per-rank path; only the
execution strategy differs.

Timeline of one synchronization interval (paper §V, §VI-B):

1. both partitions run their independent work programs (simulation:
   ``j`` Verlet steps; analysis: the analyses due at this step);
   per-node durations come from :func:`repro.power.execution
   .execute_program` under the current caps and noise draws;
2. each rank calls ``poli_power_alloc`` on *arrival* — the allgather
   inside synchronizes everyone, so the partition work time is the
   slowest node's arrival (the paper's measurement);
3. world rank 0 evaluates the controller and broadcasts; caps are
   requested (10 ms RAPL actuation applies);
4. the simulation→analysis data exchange (steps 2–4 of §V) completes
   the synchronization; the next interval starts.

Measurement model details:

* the **work time** handed to controllers is the instrumented pre-wait
  arrival time (SeeSAw's signal);
* the **epoch time** per node — what an uninstrumented system-level
  balancer sees — is ``work + ATTRIBUTION_LEAK * wait`` with
  multiplicative jitter: a system tool cannot cleanly separate the
  in-situ exchange wait from application work inside the nested
  sub-communicators (the paper's core argument, §I/§IV-B);
* per-node **power** is the RAPL counter difference over the interval
  (compute + wait + sync segments), with sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import MachineSpec, theta
from repro.cluster.noise import NoiseConfig, NoiseModel
from repro.core.controller import PowerController
from repro.core.types import Observation, PartitionMeasurement
from repro.power.execution import PhaseProgram, execute_program
from repro.power.rapl import CapMode, RaplDomainArray
from repro.power.trace import PowerTrace
from repro.telemetry import get_tracer
from repro.util.rng import RngStream
from repro.workloads.profiles import (
    SETUP_OVERHEAD_STEPS,
    analysis_work_phases,
    sim_step_phases,
    snapshot_bytes_per_node,
)

__all__ = ["SYNC_DTYPE", "JobConfig", "JobResult", "ProxyJobSession", "run_job"]

#: trace threads of the simulation and analysis partitions in a traced
#: proxy run (tid 0 is the controller lane)
SIM_LANE, ANA_LANE = 1, 2

#: bytes of the per-rank report exchanged by the power manager
REPORT_BYTES = 64


def attribution_leak(n_total_nodes: int) -> tuple[float, float]:
    """Fractions of synchronization slack a system-level observer
    misattributes as work — ``(sim_leak, ana_leak)``.

    The two partitions' slack looks different from outside (the paper's
    §I/§IV-B argument that linking time measurements to application
    events is non-trivial):

    * when the **analysis** is the straggler, the simulation's excess
      time is spent *inside* the steps-2–4 exchange protocol — blocking
      sends, data-structure rebuilds, count verification — i.e.
      low-power communication *work* ("simulation consumes 102–104 W at
      each synchronization", §VII-B1). A time-only balancer counts it
      as work, so simulation and analysis epochs look nearly equal —
      "the time difference between them is incidentally low" (§VII-B3)
      — and the balancer locks into whatever allocation its early steps
      chose. Hence a high ``sim_leak`` that grows with scale (longer
      collective phases).
    * when the **simulation** is the straggler, the analysis sits in a
      bare MPI receive, which any PMPI-level observer attributes as
      wait. Hence a low ``ana_leak`` — and this clean signal during the
      simulation's setup transient is exactly what baits the balancer
      into shifting power away from the analysis "too quickly"
      (§VII-B1).
    """
    sim_leak = 0.85
    if n_total_nodes > 128:
        sim_leak = min(1.0, sim_leak + 0.05 * math.log2(n_total_nodes / 128))
    return sim_leak, 0.25


@dataclass(frozen=True)
class JobConfig:
    """One LAMMPS in-situ job (paper §VII parameter set)."""

    analyses: tuple[str, ...] = ("full_msd",)
    dim: int = 16
    n_nodes: int = 128  #: total nodes; split equally sim/ana
    j: int = 1  #: Verlet steps between synchronizations
    n_verlet_steps: int = 400
    budget_per_node_w: float = 110.0
    cap_mode: CapMode = CapMode.LONG
    seed: int = 0
    #: per-analysis invocation interval in synchronizations (Table II);
    #: analyses absent from the map run at every synchronization
    analysis_intervals: dict = field(default_factory=dict)
    machine: MachineSpec = field(default_factory=theta)
    noise_config: NoiseConfig = field(default_factory=NoiseConfig)
    collect_traces: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.n_nodes % 2:
            raise ValueError(
                f"n_nodes must be even and >= 2 (half simulate, half "
                f"analyze), got {self.n_nodes}"
            )
        if self.j < 1:
            raise ValueError(f"j must be >= 1, got {self.j}")
        if self.n_verlet_steps < self.j:
            raise ValueError(
                f"n_verlet_steps ({self.n_verlet_steps}) must cover at "
                f"least one synchronization interval (j={self.j})"
            )
        if not self.analyses:
            raise ValueError("need at least one analysis")
        if not math.isfinite(self.budget_per_node_w):
            raise ValueError(
                f"budget_per_node_w must be finite, got "
                f"{self.budget_per_node_w}"
            )
        floor = self.machine.node.rapl_min_watts
        if self.budget_per_node_w < floor:
            raise ValueError(
                f"budget_per_node_w={self.budget_per_node_w} is below the "
                f"{self.machine.name} RAPL floor of {floor} W per node; "
                f"the cap could never be enforced"
            )
        self.machine.validate_job(self.n_nodes)

    @property
    def n_sim(self) -> int:
        return self.n_nodes // 2

    @property
    def n_ana(self) -> int:
        return self.n_nodes // 2

    @property
    def n_syncs(self) -> int:
        return self.n_verlet_steps // self.j

    @property
    def budget_w(self) -> float:
        return self.budget_per_node_w * self.n_nodes


#: One row per synchronization interval: everything the figures need.
#: ``slack_norm`` is |T_sim - T_ana| normalized by the interval
#: (Fig. 4's black line); the ``*_mean_w`` fields are per-node means.
SYNC_DTYPE = np.dtype(
    [
        ("step", np.int64),
        ("t_start", np.float64),
        ("interval_s", np.float64),
        ("sim_work_s", np.float64),
        ("ana_work_s", np.float64),
        ("overhead_s", np.float64),
        ("sync_s", np.float64),
        ("slack_norm", np.float64),
        ("sim_cap_mean_w", np.float64),
        ("ana_cap_mean_w", np.float64),
        ("sim_power_mean_w", np.float64),
        ("ana_power_mean_w", np.float64),
        ("sim_energy_j", np.float64),
        ("ana_energy_j", np.float64),
    ]
)


@dataclass(eq=False)
class JobResult:
    config: JobConfig
    controller_name: str
    total_time_s: float
    #: the completed synchronizations, one ``SYNC_DTYPE`` row each;
    #: ``syncs["slack_norm"]`` is one field's column
    syncs: np.ndarray
    sim_trace: PowerTrace | None = None
    ana_trace: PowerTrace | None = None

    def __eq__(self, other: object) -> bool:
        """Exact equality: every column compares bit for bit."""
        if not isinstance(other, JobResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.controller_name == other.controller_name
            and self.total_time_s == other.total_time_s
            and self.syncs.dtype == other.syncs.dtype
            and self.syncs.tobytes() == other.syncs.tobytes()
            and self.sim_trace == other.sim_trace
            and self.ana_trace == other.ana_trace
        )

    @property
    def mean_slack(self) -> float:
        """Mean normalized slack from the 10th step on (paper §VII-B1
        computes the MSD slack average "calculated from the 10th
        step")."""
        slack = self.syncs["slack_norm"]
        tail = slack[self.syncs["step"] >= 10]
        return float(np.mean(tail if len(tail) else slack))


class _Partition:
    """Vectorized per-node state of one partition."""

    def __init__(
        self,
        name: str,
        n_nodes: int,
        cfg: JobConfig,
        noise: NoiseModel,
        initial_caps: np.ndarray,
        trace: PowerTrace | None,
    ) -> None:
        self.name = name
        self.n = n_nodes
        self.node = cfg.machine.node
        self.domain = RaplDomainArray(
            self.node,
            n_nodes,
            initial_caps,
            mode=cfg.cap_mode,
            actuation_delay_s=cfg.machine.rapl_actuation_s,
        )
        self.noise = noise
        self.trace = trace

    def run_program(
        self, program: PhaseProgram, t_start: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Execute phases sequentially (:func:`execute_program`).

        Returns per-node ``(times, clean_times, energy)`` — ``times``
        carries the slowest-rank view (interference spikes included;
        this is what gates the partition and what PoLiMER reports),
        ``clean_times`` the median-of-ranks view a system-level
        balancer sees (spikes filtered).

        Phases run back-to-back per node; since cap changes happen only
        near the interval start, executing each phase from the *mean*
        frontier keeps the cap-splitting exact enough while staying
        vectorized (the 10 ms actuation offset is tiny against multi-
        second phases).
        """
        return execute_program(
            program,
            self.node,
            self.domain,
            t_start,
            self.noise.phase_factor_pair,
            self.trace,
        )

    def wait_draw(self, t: float) -> np.ndarray:
        caps, _ = self.domain.segment_at(t)
        return np.minimum(self.node.p_wait_watts, caps)

    def add_trace(self, t0: float, t1: float, draw: float) -> None:
        if self.trace is not None and t1 > t0:
            self.trace.add(t0, t1, draw)


def _analyses_due(cfg: JobConfig, step: int) -> list[str]:
    """Which analyses run at synchronization ``step`` (Table II)."""
    due = []
    for name in cfg.analyses:
        interval = cfg.analysis_intervals.get(name, 1)
        if step % interval == 0:
            due.append(name)
    return due


def _overhead_s(cfg: JobConfig) -> float:
    """Controller invocation cost: the manager's allgather + bcast plus
    a fixed software term (measurement reads + Eq. 1-4 arithmetic)."""
    ic = cfg.machine.interconnect()
    return (
        ic.collective_time("allgather", cfg.n_nodes, REPORT_BYTES)
        + ic.collective_time("bcast", cfg.n_nodes, REPORT_BYTES * cfg.n_nodes)
        + 120e-6
    )


class ProxyJobSession:
    """A steppable power-managed job: one synchronization per ``step``.

    ``run_job`` wraps this for the run-to-completion case.

    ``cfg.seed`` fixes the *job* identity (node allocation, job-wide
    speed factor); ``run_index`` selects one *run* within that job
    (transient phase/sensor noise). Repeating a seed with different
    run indices reproduces the paper's run-to-run setup (§VII-A,
    Table I); changing the seed is a new job.
    """

    def __init__(
        self,
        cfg: JobConfig,
        controller: PowerController,
        rng: RngStream | None = None,
        run_index: int = 0,
    ) -> None:
        if controller.n_sim != cfg.n_sim or controller.n_ana != cfg.n_ana:
            raise ValueError("controller shape does not match the job")
        self.cfg = cfg
        self.controller = controller
        root = rng if rng is not None else RngStream(cfg.seed, name="job")
        run_rng = root.child(f"run{run_index}")
        # One job-wide allocation factor shared by both partitions: the
        # machine's run-to-run state affects the whole job, not a side.
        job_factor = NoiseModel.draw_job_factor(
            root.child("job_shared"), cfg.cap_mode, cfg.noise_config
        )
        noise_sim = NoiseModel(
            root.child("sim"),
            cfg.n_sim,
            cfg.cap_mode,
            cfg.noise_config,
            job_factor=job_factor,
            phase_rng=run_rng.child("sim_phase"),
        )
        noise_ana = NoiseModel(
            root.child("ana"),
            cfg.n_ana,
            cfg.cap_mode,
            cfg.noise_config,
            job_factor=job_factor,
            phase_rng=run_rng.child("ana_phase"),
        )
        self._sensor = run_rng.child("sensor").generator
        self._epoch = run_rng.child("epoch").generator
        self._leaks = attribution_leak(cfg.n_nodes)

        alloc = controller.initial_allocation()
        self.sim = _Partition(
            "sim",
            cfg.n_sim,
            cfg,
            noise_sim,
            alloc.sim_caps_w,
            PowerTrace("sim") if cfg.collect_traces else None,
        )
        self.ana = _Partition(
            "ana",
            cfg.n_ana,
            cfg,
            noise_ana,
            alloc.ana_caps_w,
            PowerTrace("ana") if cfg.collect_traces else None,
        )
        ic = cfg.machine.interconnect()
        self._overhead = _overhead_s(cfg)
        self._sync_s = ic.exchange_time(
            snapshot_bytes_per_node(cfg.dim, cfg.n_sim), cfg.n_sim
        ) + ic.collective_time("barrier", cfg.n_nodes, 0)

        self.t = 0.0
        self.step_index = 0
        self._syncs = np.empty(cfg.n_syncs, SYNC_DTYPE)
        # Phase programs repeat: the simulation's differs only during
        # setup, the analysis's only by the set of due analyses. Each is
        # one PhaseProgram, which keys its partition's operating points.
        self._sim_programs: dict[bool, PhaseProgram] = {}
        self._ana_programs: dict[tuple[str, ...], PhaseProgram] = {}
        #: program -> turbo demand of its most demanding kind (traced)
        self._turbo_demand: dict[PhaseProgram, float] = {}

        # Phase telemetry rides the ambient tracer when one is enabled
        # (campaign workers install a shipping tracer, `run --trace` an
        # in-process one). Mirror the DES engine: each run binds the
        # job's virtual clock and becomes its own trace process, so
        # back-to-back runs never overlap timelines.
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        if self._tracer is not None:
            tracer.bind_clock(
                lambda: self.t,
                label=(
                    f"proxy {controller.name} d{cfg.dim} "
                    f"s{cfg.seed} r{run_index}"
                ),
            )
            tracer.name_thread(SIM_LANE, "simulation partition")
            tracer.name_thread(ANA_LANE, "analysis partition")

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.step_index >= self.cfg.n_syncs

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one synchronization interval."""
        if self.done:
            raise RuntimeError("job already completed")
        cfg = self.cfg
        sim, ana = self.sim, self.ana
        step = self.step_index + 1
        t0 = self.t
        overhead, sync_s = self._overhead, self._sync_s

        # --- independent work -----------------------------------------
        due = _analyses_due(cfg, step)
        sim_phases, ana_phases = self._programs(step, due)
        if self._tracer is not None:
            # read before the programs run: they apply pending requests
            limited = (
                self._limited(sim, sim_phases, t0),
                self._limited(ana, ana_phases, t0),
            )
        sim_times, sim_clean, sim_energy = sim.run_program(sim_phases, t0)
        ana_times, ana_clean, ana_energy = ana.run_program(ana_phases, t0)

        sim_work = float(sim_times.max())
        ana_work = float(ana_times.max()) if due else 0.0
        work = max(sim_work, ana_work)

        # waiting for the other partition (spin-wait draw)
        sim_wait = work - sim_times
        ana_wait = work - ana_times
        # pre-wait energies: what "md"/"analysis" phases burned doing
        # work, before wait/sync draws are folded in (telemetry splits
        # the two; the controller sees only the folded totals below)
        sim_work_j, ana_work_j = sim_energy, ana_energy
        t_arrive = t0 + work
        sim_wait_w = sim.wait_draw(t_arrive)
        ana_wait_w = ana.wait_draw(t_arrive)
        sim_energy = sim_energy + sim_wait * sim_wait_w
        ana_energy = ana_energy + ana_wait * ana_wait_w

        # trace the waiting tail of the faster partition (Fig. 1's idle
        # plateau at ~105 W)
        if cfg.collect_traces:
            sim_mean_end = t0 + float(sim_times.mean())
            ana_mean_end = t0 + float(ana_times.mean())
            sim.add_trace(sim_mean_end, t_arrive, float(sim_wait_w.mean()))
            ana.add_trace(ana_mean_end, t_arrive, float(ana_wait_w.mean()))

        # --- allocation + synchronization ------------------------------
        # With no analysis due this step, there is no simulation↔
        # analysis synchronization at all (§V: steps 2-4 and 7 are
        # skipped until the next j-th step) — hence no exchange, no
        # poli_power_alloc, and the measurement carries no analysis
        # information the controller could act on.
        step_sync_s = sync_s if due else 0.0
        step_overhead = overhead if due else 0.0
        interval = work + step_overhead + step_sync_s
        comm_draw_sim = np.minimum(103.0, sim_wait_w)
        comm_draw_ana = np.minimum(103.0, ana_wait_w)
        sim_energy = sim_energy + (step_overhead + step_sync_s) * comm_draw_sim
        ana_energy = ana_energy + (step_overhead + step_sync_s) * comm_draw_ana
        if cfg.collect_traces:
            sim.add_trace(t_arrive, t0 + interval, float(comm_draw_sim.mean()))
            ana.add_trace(t_arrive, t0 + interval, float(comm_draw_ana.mean()))

        # np.add.reduce(x) is np.sum(x), and np.add.reduce(x) / n is
        # exactly np.mean(x), without the wrappers' overhead
        add = np.add.reduce
        sim_energy_j = float(add(sim_energy))
        ana_energy_j = float(add(ana_energy))
        t_decide = t_arrive + step_overhead
        slack_s = None
        if due:
            obs = _build_observation(
                step,
                self._leaks,
                sim_work,
                ana_work,
                sim_clean,
                ana_clean,
                sim_wait,
                ana_wait,
                sim_energy,
                ana_energy,
                sim_energy_j,
                ana_energy_j,
                interval,
                self._sensor,
                self._epoch,
            )
            if self._tracer is not None:
                slack_s = obs.slack_s
            decision = self.controller.observe(obs)
            if decision is not None:
                sim.domain.request_caps(decision.sim_caps_w, now=t_decide)
                ana.domain.request_caps(decision.ana_caps_w, now=t_decide)

        if self._tracer is not None:
            self._emit_phases(
                t0,
                due,
                work,
                step_overhead + step_sync_s,
                sim_times,
                ana_times,
                sim_wait,
                ana_wait,
                sim_work_j,
                ana_work_j,
                sim_energy,
                ana_energy,
                slack_s,
                limited,
            )

        n_sim, n_ana = sim.n, ana.n
        self._syncs[step - 1] = (
            step,
            t0,
            interval,
            sim_work,
            ana_work,
            step_overhead,
            step_sync_s,
            abs(sim_work - ana_work) / interval,
            float(add(sim.domain.requested_caps)) / n_sim,
            float(add(ana.domain.requested_caps)) / n_ana,
            sim_energy_j / n_sim / interval,
            ana_energy_j / n_ana / interval,
            sim_energy_j,
            ana_energy_j,
        )
        self.t = t0 + interval
        self.step_index = step

    def _programs(
        self, step: int, due: list[str]
    ) -> tuple[PhaseProgram, PhaseProgram]:
        """The simulation's and the analysis's phase programs at
        synchronization ``step``, built once per distinct program."""
        cfg = self.cfg
        setup = step <= SETUP_OVERHEAD_STEPS
        sim_phases = self._sim_programs.get(setup)
        if sim_phases is None:
            sim_phases = self._sim_programs[setup] = PhaseProgram(
                cfg.j * sim_step_phases(cfg.dim, cfg.n_sim, cfg.n_nodes, step)
            )
        key = tuple(due)
        ana_phases = self._ana_programs.get(key)
        if ana_phases is None:
            ana_phases = self._ana_programs[key] = PhaseProgram(
                analysis_work_phases(due, cfg.dim, cfg.n_ana, cfg.n_nodes)
                if due
                else []
            )
        return sim_phases, ana_phases

    def _limited(
        self, part: _Partition, program: PhaseProgram, t: float
    ) -> int:
        """Ranks of ``part`` whose cap in effect at ``t`` sits below the
        turbo demand of ``program``'s most demanding phase kind."""
        demand = self._turbo_demand.get(program)
        if demand is None:
            node = part.node
            demand = self._turbo_demand[program] = max(
                (float(kind.demand(node, node.f_turbo)) for kind in program.kinds),
                default=0.0,
            )
        return int(np.count_nonzero(part.domain.effective_at(t) < demand))

    def _emit_phases(
        self,
        t0: float,
        due: list,
        work: float,
        tail_s: float,
        sim_times: np.ndarray,
        ana_times: np.ndarray,
        sim_wait: np.ndarray,
        ana_wait: np.ndarray,
        sim_work_j: np.ndarray,
        ana_work_j: np.ndarray,
        sim_total_j: np.ndarray,
        ana_total_j: np.ndarray,
        slack_s: float | None,
        limited: tuple[int, int],
    ) -> None:
        """Per-partition phase spans for this interval (tracer enabled
        only).

        The simulation is trace thread ``SIM_LANE``, the analysis
        ``ANA_LANE`` (tid 0 stays the controller lane). Each lane gets
        at most two spans, as PoLiMER measures a partition:
        ``phase.md`` / ``phase.analysis`` from ``t0`` for the slowest
        rank's work time, then ``insitu.sync`` from there to the end of
        the interval (spin-wait plus the exchange/actuation tail).
        Their ``energy_j`` is summed over the partition's ranks, pre-wait
        work energy vs the energy burned waiting, so the md / analysis /
        sync-wait split sums exactly to the proxy's own per-interval
        energy accounting; ``ranks`` and ``rank_s`` (the per-rank
        seconds, summed) keep the rank-seconds and mean node power, and
        the sync span's ``slack_max_s`` / ``slack_mean_s`` summarize the
        per-rank wait; a work span's ``limited`` counts the ranks whose
        cap at ``t0`` sat below the program's turbo demand
        (:meth:`_limited`). At a synchronization the controller observed,
        the simulation lane's sync span also carries the observation's
        ``slack_s``. A span no rank spent time in is skipped.
        """
        pid = self._tracer.pid
        records: list[dict] = []

        def lane(
            tid, phase_name, times, wait, work_j, total_j, limited, slack_s=None
        ):
            slowest = float(times.max())
            rank_s = float(times.sum())
            ranks = len(times)
            if phase_name is not None and rank_s > 0.0:
                records.append(
                    {
                        "ph": "X", "name": phase_name, "cat": "proxy",
                        "ts": t0, "dur": slowest, "pid": pid, "tid": tid,
                        "args": {
                            "energy_j": float(work_j.sum()),
                            "ranks": ranks,
                            "rank_s": rank_s,
                            "limited": limited,
                        },
                    }
                )
            sync_rank_s = float((wait + tail_s).sum())
            if sync_rank_s > 0.0:
                args = {
                    "energy_j": float((total_j - work_j).sum()),
                    "ranks": ranks,
                    "rank_s": sync_rank_s,
                    "slack_max_s": float(wait.max()),
                    "slack_mean_s": float(wait.mean()),
                }
                if slack_s is not None:
                    args["slack_s"] = slack_s
                records.append(
                    {
                        "ph": "X", "name": "insitu.sync", "cat": "proxy",
                        "ts": t0 + slowest, "dur": work + tail_s - slowest,
                        "pid": pid, "tid": tid, "args": args,
                    }
                )

        lane(
            SIM_LANE,
            "phase.md",
            sim_times,
            sim_wait,
            sim_work_j,
            sim_total_j,
            limited[0],
            slack_s,
        )
        lane(
            ANA_LANE,
            "phase.analysis" if due else None,
            ana_times,
            ana_wait,
            ana_work_j,
            ana_total_j,
            limited[1],
        )
        self._tracer.emit_many(records)

    def run(self) -> JobResult:
        """Run the remaining synchronizations to completion."""
        while not self.done:
            self.step()
        return self.result()

    def result(self) -> JobResult:
        """The job so far: one ``syncs`` row per completed interval."""
        return JobResult(
            config=self.cfg,
            controller_name=self.controller.name,
            total_time_s=self.t,
            syncs=self._syncs[: self.step_index],
            sim_trace=self.sim.trace,
            ana_trace=self.ana.trace,
        )


def run_job(
    cfg: JobConfig,
    controller: PowerController,
    rng: RngStream | None = None,
    run_index: int = 0,
) -> JobResult:
    """Run one power-managed in-situ job to completion.

    Convenience wrapper around :class:`ProxyJobSession`.
    """
    return ProxyJobSession(cfg, controller, rng=rng, run_index=run_index).run()


def _build_observation(
    step: int,
    leaks: tuple[float, float],
    sim_work: float,
    ana_work: float,
    sim_clean: np.ndarray,
    ana_clean: np.ndarray,
    sim_wait: np.ndarray,
    ana_wait: np.ndarray,
    sim_energy: np.ndarray,
    ana_energy: np.ndarray,
    sim_energy_j: float,
    ana_energy_j: float,
    interval: float,
    sensor: np.random.Generator,
    epoch: np.random.Generator,
) -> Observation:
    """Assemble the controllers' view of one interval.

    The partition ``work_time`` is the slowest-rank time (spikes
    included — that is PoLiMER's instrumented measurement and also what
    physically gates the job); the per-node epoch times use the
    median-of-ranks (spike-filtered) view plus misattributed wait,
    which is what a system-level balancer observes. ``leaks`` is
    :func:`attribution_leak` of the job, ``*_energy_j`` the per-node
    energies summed, and ``sensor`` and ``epoch`` draw the power-sensor
    noise and the epoch jitter.
    """
    sim_leak, ana_leak = leaks
    n_sim, n_ana = len(sim_clean), len(ana_clean)
    sim_m = PartitionMeasurement(
        work_time_s=sim_work,
        energy_j=sim_energy_j,
        interval_s=interval,
        node_epoch_times_s=(sim_clean + sim_leak * sim_wait)
        * epoch.lognormal(0.0, 0.03, size=n_sim),
        node_power_w=np.maximum(
            sim_energy / interval + sensor.normal(0.0, 1.5, size=n_sim), 1.0
        ),
    )
    ana_m = PartitionMeasurement(
        work_time_s=max(ana_work, 1e-9),
        energy_j=ana_energy_j,
        interval_s=interval,
        node_epoch_times_s=(ana_clean + ana_leak * ana_wait)
        * epoch.lognormal(0.0, 0.03, size=n_ana),
        node_power_w=np.maximum(
            ana_energy / interval + sensor.normal(0.0, 1.5, size=n_ana), 1.0
        ),
    )
    return Observation(step=step, sim=sim_m, ana=ana_m)
