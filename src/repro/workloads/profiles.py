"""Workload profiles: phase kinds and calibrated work constants.

This module is the single source of truth for *what a Verlet step and
each analysis cost*, both for the per-rank DES path (the in-situ
coupler converts real-engine operation counts into seconds using the
``SECONDS_PER_*`` constants) and for the vectorized proxy jobs that
regenerate the paper's figures at 128–1024 nodes.

Calibration anchors, with the paper sentence each one encodes:

* "4 seconds between synchronizations" for LAMMPS+MSD on 128 nodes,
  ``dim=16``, ``j=1`` at 110 W/node (§VII-B1, Fig. 4d/e) — fixes
  ``SIM_SECONDS_PER_ATOM`` and the full-MSD work so that, *throttled at
  110 W*, both take ~4 s.
* "VACF, RDF, MSD1D, and MSD2D are 2–4× faster than simulation"
  (§VII-B1) — fixes those analyses' work constants.
* "MSD has high CPU and memory utilization, MSD2D is mostly
  memory-intensive (less than MSD), RDF is compute bound but with
  higher memory needs than VACF and MSD1D, both having low memory and
  CPU utilization" (§VI-C) — fixes each phase kind's (k, gamma, beta).
* "LAMMPS fails to utilize additional power beyond 140 W per node"
  (§VII-D) — the simulation's blended demand saturates near 140–150 W.
* "simulation consumes 102–104 W" when capped high but waiting /
  communication-bound (§VII-B1) — the COMM phase's flat ~103 W demand.
* "In the first couple steps the simulation has extra setup overhead,
  which is consistent in repeated runs with MSD" (§VII-B1) —
  ``SETUP_OVERHEAD_FACTOR`` on the first ``SETUP_OVERHEAD_STEPS``
  synchronizations.
* At scale, communication time grows (Theta's collectives are
  log-radix) so the communication *fraction* of a fixed-``dim`` step
  grows with node count — the mechanism behind §VII-B3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.power.model import PhaseKind

__all__ = [
    "ANALYSIS_PHASES",
    "ANCHOR_ANA_NODES",
    "ANCHOR_ATOMS_PER_NODE",
    "ANCHOR_DIM",
    "ANCHOR_SIM_NODES",
    "PHASES",
    "SETUP_OVERHEAD_FACTOR",
    "SETUP_OVERHEAD_STEPS",
    "WorkPhase",
    "analysis_work_phases",
    "atoms_total",
    "comm_scale",
    "sim_step_phases",
    "snapshot_bytes_per_node",
]

# --------------------------------------------------------------------------
# Phase kinds: (k_watts above the 65 W floor at base clock, gamma, beta).
# beta ~ 1: compute-bound; beta small: memory/communication-bound.
# COMM's tiny gamma makes its demand essentially flat (~100-104 W),
# which is what pins both the Fig. 1 idle level and the §VII-B3
# low-power communication phases.
# --------------------------------------------------------------------------
PHASES = {
    # force: saturates at demand(f_turbo) = 65 + 60*1.205 ~ 137 W — the
    # "cannot utilize beyond 140 W" observation — while staying highly
    # power-sensitive inside the 98-137 W band (beta/gamma ~ 0.77).
    "force": PhaseKind("force", k_watts=60.0, gamma=1.3, beta=1.0),
    "integrate": PhaseKind("integrate", k_watts=45.0, gamma=1.5, beta=0.7),
    "neighbor": PhaseKind("neighbor", k_watts=55.0, gamma=1.5, beta=0.6),
    "comm": PhaseKind("comm", k_watts=38.0, gamma=0.1, beta=0.05),
    # analysis kernels; ana_cpu (the full-MSD averaging) saturates at
    # ~152 W — a *higher*-demand kernel than the simulation blend.
    "ana_cpu": PhaseKind("ana_cpu", k_watts=70.0, gamma=1.5, beta=0.95),
    "ana_mem": PhaseKind("ana_mem", k_watts=58.0, gamma=1.5, beta=0.5),
    "ana_light": PhaseKind("ana_light", k_watts=38.0, gamma=1.0, beta=0.5),
    "rdf_cpu": PhaseKind("rdf_cpu", k_watts=65.0, gamma=1.6, beta=0.9),
}

# --------------------------------------------------------------------------
# Calibration anchor: 128-node job (64 sim + 64 ana), dim=16, j=1.
# --------------------------------------------------------------------------
ANCHOR_DIM = 16
ANCHOR_SIM_NODES = 64
ANCHOR_ANA_NODES = 64
ANCHOR_ATOMS_PER_NODE = 1568 * ANCHOR_DIM**3 / ANCHOR_SIM_NODES  # 100 352

#: seconds of *base-frequency* simulation work per atom per Verlet step
#: (all compute phases combined); chosen so that at a 110 W cap the
#: anchor step takes ~4 s including communication.
SIM_SECONDS_PER_ATOM = 3.27e-5

#: fraction of the per-step compute budget per phase
SIM_PHASE_SPLIT = {
    "force": 0.55,
    "neighbor": 0.17,
    "integrate": 0.08,
}
#: communication work as a fraction of the compute budget at the anchor
#: scale (neighbor-list exchange + per-step thermo output, §V)
SIM_COMM_SPLIT = {
    "neighbor_comm": 0.08,
    "thermo_io": 0.12,
}

#: first `SETUP_OVERHEAD_STEPS` synchronizations carry simulation setup
#: (Fig. 4d: a pronounced transient, "consistent in repeated runs");
#: it is what baits the time-aware balancer into its wrong-direction
#: shift (§VII-B1: "Because MSD is initially faster than simulation,
#: the time-aware approach assigns [the simulation] more power too
#: quickly")
SETUP_OVERHEAD_STEPS = 2
SETUP_OVERHEAD_FACTOR = 1.6

#: growth of communication work per doubling of total node count beyond
#: the anchor scale (log-radix collectives + congestion)
COMM_GROWTH_PER_DOUBLING = 0.35


@dataclass(frozen=True)
class WorkPhase:
    """One phase of a partition's per-synchronization program."""

    kind: PhaseKind
    work_s: float  # seconds at base frequency, speed 1.0

    def __post_init__(self) -> None:
        if self.work_s < 0:
            raise ValueError("negative work")


def atoms_total(dim: int) -> int:
    """The paper's problem size: 1568 * dim^3 atoms."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 1568 * dim**3


def comm_scale(n_total_nodes: int) -> float:
    """Communication work multiplier relative to the 128-node anchor."""
    if n_total_nodes <= 0:
        raise ValueError("need nodes")
    doublings = math.log2(
        max(n_total_nodes, 1) / (ANCHOR_SIM_NODES + ANCHOR_ANA_NODES)
    )
    return max(1.0 + COMM_GROWTH_PER_DOUBLING * doublings, 0.25)


def snapshot_bytes_per_node(dim: int, n_sim_nodes: int) -> int:
    """Bytes a sim node ships at each synchronization: coordinates and
    velocities, 6 doubles/atom (§V step 2)."""
    return int(atoms_total(dim) / n_sim_nodes * 6 * 8)


def sim_step_phases(
    dim: int, n_sim_nodes: int, n_total_nodes: int, sync_step: int = 10
) -> list[WorkPhase]:
    """Phase program of ONE Verlet step on each simulation node.

    ``sync_step`` is the synchronization index (0-based); the first two
    carry the setup overhead observed in the paper's Fig. 4d.
    """
    per_node = atoms_total(dim) / n_sim_nodes
    budget = SIM_SECONDS_PER_ATOM * per_node
    if 1 <= sync_step <= SETUP_OVERHEAD_STEPS:
        budget *= SETUP_OVERHEAD_FACTOR
    scale = comm_scale(n_total_nodes)
    phases = [
        WorkPhase(PHASES["integrate"], SIM_PHASE_SPLIT["integrate"] * budget),
        WorkPhase(PHASES["neighbor"], SIM_PHASE_SPLIT["neighbor"] * budget),
        WorkPhase(
            PHASES["comm"], SIM_COMM_SPLIT["neighbor_comm"] * budget * scale
        ),
        WorkPhase(PHASES["force"], SIM_PHASE_SPLIT["force"] * budget),
        WorkPhase(
            PHASES["comm"], SIM_COMM_SPLIT["thermo_io"] * budget * scale
        ),
    ]
    return phases


# --------------------------------------------------------------------------
# Analyses: per-synchronization work at the anchor, in seconds at base
# frequency per analysis node, split into kernel phases. Values chosen
# so the *throttled* (110 W) runtimes land on the paper's ratios:
# full MSD ~ simulation; others 2-4x faster. A small collective term
# (comm kind) scales with node count.
# --------------------------------------------------------------------------
ANALYSIS_PHASES: dict[str, list[tuple[str, float]]] = {
    # (kind name, seconds at base at the anchor per analysis node).
    # msd_avg is the "final averaging of all particles" — the high-CPU
    # component that makes full MSD simulation-sized (full MSD throttled
    # at 110 W lands at ~1.15x the simulation step: "nearly identical",
    # Fig. 4d, with a visible baseline slack SeeSAw removes by giving
    # analysis more power).
    "rdf": [("rdf_cpu", 1.30)],
    "vacf": [("ana_light", 1.20)],
    "msd1d": [("ana_light", 1.10)],
    "msd2d": [("ana_mem", 1.35)],
    "msd_avg": [("ana_cpu", 1.05)],
}

#: composite workloads expanded by :func:`analysis_work_phases`; the
#: paper's "full MSD" is MSD1D + MSD2D + the final averaging (§VII-B).
#: "all" includes the final MSD averaging only "in case of full MSD",
#: i.e. for the memory-limited dim=16 runs — use ``all_msd`` there and
#: plain ``all`` for dim 36/48.
COMPOSITES = {
    "full_msd": ("msd1d", "msd2d", "msd_avg"),
    "all": ("rdf", "msd1d", "msd2d", "vacf"),
    "all_msd": ("rdf", "msd1d", "msd2d", "msd_avg", "vacf"),
}

#: collective/communication work per analysis invocation, as a fraction
#: of the analysis's anchor kernel work, multiplied by the comm scale —
#: the final reductions (histogram merges, all-particle averages) are
#: collectives whose cost grows with node count, which is why the
#: analyses become relatively *slower* at scale (Fig. 5a)
ANALYSIS_COMM_FRACTION = 0.22

#: fraction of each analysis kernel that does not scale with the atom
#: count — reductions, histogram/bin bookkeeping, per-invocation setup.
#: This is why the analyses' speed *relative to the simulation* depends
#: on atoms-per-node: at large per-node problems (dim=36 on 128 nodes,
#: Fig. 7) the analyses outpace the simulation, while at small per-node
#: problems at scale the fixed part dominates and the analysis becomes
#: the straggler (Fig. 5a: SeeSAw allocates more power to analysis at
#: 1024 nodes).
ANALYSIS_FIXED_FRACTION = 0.25


def expand_analyses(names: list[str] | tuple[str, ...]) -> list[str]:
    """Expand composite workload names into base analyses."""
    out: list[str] = []
    for name in names:
        if name in COMPOSITES:
            out.extend(COMPOSITES[name])
        else:
            out.append(name)
    return out


def analysis_work_phases(
    names: list[str],
    dim: int,
    n_ana_nodes: int,
    n_total_nodes: int,
) -> list[WorkPhase]:
    """Phase program of one analysis invocation (all ``names`` run in
    sequence — the paper's *all* category works this way, §VII-B)."""
    per_node_ratio = (atoms_total(dim) / n_ana_nodes) / ANCHOR_ATOMS_PER_NODE
    work_ratio = (
        ANALYSIS_FIXED_FRACTION
        + (1.0 - ANALYSIS_FIXED_FRACTION) * per_node_ratio
    )
    scale = comm_scale(n_total_nodes)
    phases: list[WorkPhase] = []
    for name in expand_analyses(names):
        try:
            kernels = ANALYSIS_PHASES[name]
        except KeyError:
            raise ValueError(
                f"unknown analysis {name!r}; choose from "
                f"{sorted(ANALYSIS_PHASES) + sorted(COMPOSITES)}"
            ) from None
        kernel_sum = 0.0
        for kind_name, anchor_work in kernels:
            kernel_sum += anchor_work
            phases.append(
                WorkPhase(PHASES[kind_name], anchor_work * work_ratio)
            )
        phases.append(
            WorkPhase(
                PHASES["comm"],
                ANALYSIS_COMM_FRACTION * kernel_sum * scale,
            )
        )
    return phases
