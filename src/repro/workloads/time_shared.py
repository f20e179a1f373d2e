"""Time-shared in-situ mode: the paper's §III contrast case.

The paper scopes SeeSAw to *space-shared* in-situ analysis and argues
the alternative is easy: "The time-shared mode with alternating
simulation and analysis poses a simpler problem of managing a power
budget: when one workload enters the critical section, power can be
either kept at the budget or reduced to save energy."

This module demonstrates exactly that. In time-shared mode every node
runs the simulation phases and then the analysis phases back-to-back —
there is no partner partition, no synchronization wait, no slack to
harvest, and therefore nothing for SeeSAw to optimize. The only
management decision left is the paper's sentence:

* ``budget`` policy — hold every node at the budget cap throughout;
* ``eco`` policy — during each segment, lower the cap to the segment's
  *saturation demand* (the draw above which its phases gain no speed).
  Runtime and measured energy are unchanged (in this power model an
  unthrottled node draws its demand, not its cap); what the eco policy
  buys is **released budget** — reserved watts handed back per segment,
  exactly what a system-wide manager (:mod:`repro.sched`) can lend to
  other jobs. On hardware whose uncore/limit circuitry tracks the cap,
  the released budget is additionally an energy saving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.core.controller import PowerController  # noqa: F401 (docs)
from repro.power.execution import execute_phase
from repro.power.rapl import RaplDomainArray
from repro.util.rng import RngStream
from repro.workloads.lammps_proxy import JobConfig, _analyses_due
from repro.workloads.profiles import (
    WorkPhase,
    analysis_work_phases,
    sim_step_phases,
)

__all__ = ["TimeSharedResult", "run_time_shared_job", "segment_saturation_w"]


@dataclass
class TimeSharedResult:
    """Outcome of a time-shared run."""

    policy: str
    total_time_s: float
    total_energy_j: float
    #: time-integral of the requested caps (J-equivalent of reserved
    #: power); ``budget_per_node * n * T`` minus this is what the eco
    #: policy handed back to the machine
    reserved_j: float = 0.0
    #: the job's nominal reservation over its lifetime
    nominal_j: float = 0.0

    @property
    def mean_power_w(self) -> float:
        return self.total_energy_j / self.total_time_s

    @property
    def released_j(self) -> float:
        """Budget returned to the machine (0 for the budget policy)."""
        return max(self.nominal_j - self.reserved_j, 0.0)

    @property
    def mean_released_w(self) -> float:
        return self.released_j / self.total_time_s


def segment_saturation_w(phases: list[WorkPhase], node) -> float:
    """The cap above which none of ``phases`` runs any faster.

    Each phase saturates at its turbo demand; the segment saturates at
    the max across phases (a small margin covers model noise).
    """
    if not phases:
        return node.rapl_min_watts
    peak = max(float(p.kind.demand(node, node.f_turbo)) for p in phases)
    return max(peak + 1.0, node.rapl_min_watts)


def run_time_shared_job(
    cfg: JobConfig,
    policy: str = "budget",
    run_index: int = 0,
) -> TimeSharedResult:
    """Run ``cfg``'s workload time-shared on all ``cfg.n_nodes`` nodes.

    The same Verlet/analysis programs as the space-shared proxy, but
    executed alternately on one set of nodes. ``policy`` is ``budget``
    (hold the cap) or ``eco`` (drop to saturation per segment).
    """
    if policy not in ("budget", "eco"):
        raise ValueError("policy must be 'budget' or 'eco'")
    node = cfg.machine.node
    n = cfg.n_nodes
    per_node_budget = node.clamp_cap(cfg.budget_per_node_w)
    domain = RaplDomainArray(
        node,
        n,
        per_node_budget,
        mode=cfg.cap_mode,
        actuation_delay_s=cfg.machine.rapl_actuation_s,
    )
    root = RngStream(cfg.seed, name="ts-job")
    run_rng = root.child(f"run{run_index}")
    job_factor = NoiseModel.draw_job_factor(
        root.child("job_shared"), cfg.cap_mode, cfg.noise_config
    )
    noise = NoiseModel(
        root.child("nodes"),
        n,
        cfg.cap_mode,
        cfg.noise_config,
        job_factor=job_factor,
        phase_rng=run_rng.child("phase"),
    )

    t = 0.0
    energy = 0.0
    reserved = 0.0
    for step in range(1, cfg.n_syncs + 1):
        # In time-shared mode all nodes cooperate on each program, so
        # per-node work shrinks by the 2x node count relative to the
        # space-shared split of the same job.
        sim_phases: list[WorkPhase] = []
        for _ in range(cfg.j):
            sim_phases.extend(sim_step_phases(cfg.dim, n, n, step))
        due = _analyses_due(cfg, step)
        ana_phases = (
            analysis_work_phases(due, cfg.dim, n, n) if due else []
        )
        for segment in (sim_phases, ana_phases):
            if not segment:
                continue
            cap = per_node_budget
            if policy == "eco":
                cap = min(
                    per_node_budget, segment_saturation_w(segment, node)
                )
                domain.request_caps(cap, now=t)
            seg_t = t + cfg.machine.rapl_actuation_s if policy == "eco" else t
            times = np.zeros(n)
            for phase in segment:
                out = execute_phase(
                    phase.kind,
                    node,
                    phase.work_s,
                    domain,
                    t_start=seg_t + float(times.mean()),
                    noise_factors=noise.phase_factors(),
                )
                times += out.durations
                energy += float(out.energy_joules.sum())
            # barrier at segment end: everyone waits for the slowest
            seg_dur = float(times.max())
            waits = seg_dur - times
            caps_now, _ = domain.segment_at(t + seg_dur)
            energy += float(
                (waits * np.minimum(node.p_wait_watts, caps_now)).sum()
            )
            reserved += cap * n * seg_dur
            t += seg_dur
            if policy == "eco":
                domain.request_caps(per_node_budget, now=t)

    return TimeSharedResult(
        policy=policy,
        total_time_s=t,
        total_energy_j=energy,
        reserved_j=reserved,
        nominal_j=per_node_budget * n * t,
    )
