"""In-situ coupling: the Verlet-Splitanalysis workflow of paper §V.

Runs real MD + real analyses space-shared over simulated MPI with
PoLiMER power management. The paper-scale figure harnesses use the
vectorized proxy instead (:mod:`repro.workloads`); this path is the
full-stack integration of every substrate.
"""

from repro.insitu.coupler import InsituConfig, InsituResult, run_insitu
from repro.insitu.replica import (
    Trajectory,
    TrajectoryKey,
    merge_slices,
    trajectory,
)

__all__ = [
    "InsituConfig",
    "InsituResult",
    "Trajectory",
    "TrajectoryKey",
    "merge_slices",
    "run_insitu",
    "trajectory",
]
