"""Workload layer: calibrated profiles and the scaled proxy job.

:mod:`repro.workloads.profiles` carries the paper-anchored constants
(phase power characters, per-analysis work, scale effects);
:mod:`repro.workloads.lammps_proxy` runs full 128–1024-node jobs in
milliseconds. ``tests/workloads/
test_calibration.py`` cross-checks the constants against the *real*
engines in :mod:`repro.md` / :mod:`repro.analysis`; this package
imports neither.
"""

from repro.workloads.lammps_proxy import (
    SYNC_DTYPE,
    JobConfig,
    JobResult,
    ProxyJobSession,
    run_job,
)
from repro.workloads.profiles import (
    ANALYSIS_PHASES,
    PHASES,
    WorkPhase,
    analysis_work_phases,
    atoms_total,
    comm_scale,
    sim_step_phases,
    snapshot_bytes_per_node,
)

__all__ = [
    "ANALYSIS_PHASES",
    "JobConfig",
    "JobResult",
    "ProxyJobSession",
    "PHASES",
    "SYNC_DTYPE",
    "WorkPhase",
    "analysis_work_phases",
    "atoms_total",
    "comm_scale",
    "run_job",
    "sim_step_phases",
    "snapshot_bytes_per_node",
]
