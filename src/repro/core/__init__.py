"""The paper's contribution and its comparators.

Four power-allocation strategies over a (simulation, analysis) pair:

* :class:`StaticController` — the paper's baseline (fixed equal split);
* :class:`PowerAwareController` — SLURM-style, power feedback only;
* :class:`TimeAwareController` — GEOPM-power-balancer-style, time
  feedback only;
* :class:`SeeSAwController` — the paper's contribution: energy
  (time × power) feedback with windowed averaging and EWMA damping.
"""

from repro.core.controller import PowerController, clamp_partition_totals
from repro.core.exploring import ExploringSeeSAwController
from repro.core.power_aware import PowerAwareController
from repro.core.seesaw import SeeSAwController, optimal_split
from repro.core.static import StaticController
from repro.core.time_aware import TimeAwareController
from repro.core.types import Allocation, Observation, PartitionMeasurement

__all__ = [
    "Allocation",
    "ExploringSeeSAwController",
    "Observation",
    "PartitionMeasurement",
    "PowerAwareController",
    "PowerController",
    "SeeSAwController",
    "StaticController",
    "TimeAwareController",
    "clamp_partition_totals",
    "optimal_split",
]
