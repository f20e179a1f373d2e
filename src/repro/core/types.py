"""Shared datatypes of the power-controller interface.

A controller sees one :class:`Observation` per synchronization and
returns (possibly) a new :class:`Allocation`. The measurement content
follows paper §VI-B: per-partition time is the slowest rank's time to
reach the synchronization (including the cost of the allocation
itself), power is summed over the partition's nodes; per-node arrays
are additionally provided because the power-aware (SLURM) and
time-aware (GEOPM) comparators act on individual nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Allocation", "Observation", "PartitionMeasurement"]


@dataclass(frozen=True)
class PartitionMeasurement:
    """What PoLiMER measured for one partition over one sync interval."""

    #: time of the slowest rank to reach the synchronization (seconds);
    #: excludes the wait for the other partition — this is the
    #: application-knowledge signal SeeSAw is built on
    work_time_s: float
    #: total energy of the partition's nodes over the interval (J),
    #: including synchronization waiting
    energy_j: float
    #: full interval duration (release to release, seconds)
    interval_s: float
    #: per-node iteration times as a system-level tool would see them
    #: (sync-inclusive epoch time with measurement/attribution jitter)
    node_epoch_times_s: np.ndarray
    #: per-node mean power over the interval (W), sensor noise included
    node_power_w: np.ndarray

    def __post_init__(self) -> None:
        if self.work_time_s < 0 or self.interval_s <= 0:
            raise ValueError("invalid measurement times")
        if len(self.node_epoch_times_s) != len(self.node_power_w):
            raise ValueError("per-node arrays must align")

    @property
    def n_nodes(self) -> int:
        return len(self.node_power_w)

    @property
    def mean_power_w(self) -> float:
        """Partition mean power over the interval (sum/nodes)."""
        return float(self.node_power_w.mean())

    @property
    def total_power_w(self) -> float:
        """Summed node power — the paper's partition power metric."""
        return float(self.node_power_w.sum())


@dataclass(frozen=True)
class Observation:
    """One synchronization's worth of feedback.

    The quality fields describe how much of the measurement actually
    arrived: under fault injection, ranks may fail to report
    (``*_missing`` — dropped or discarded as older than the manager's
    max age) or re-send an old report (``*_stale`` — aggregated, but
    flagged). A healthy run has all four at zero; controllers consult
    them via :meth:`PowerController.guard_observation`.
    """

    #: synchronization index (0-based; step 0 is outside the main loop
    #: and ignored by the runner, matching §VII-B1)
    step: int
    sim: PartitionMeasurement
    ana: PartitionMeasurement
    #: ranks whose report never made it into this observation
    sim_missing: int = 0
    ana_missing: int = 0
    #: ranks whose report was aggregated but carried an old sequence
    sim_stale: int = 0
    ana_stale: int = 0

    @property
    def slack_s(self) -> float:
        """Work-time gap between the partitions: how long the faster
        one waits at this synchronization."""
        return abs(self.sim.work_time_s - self.ana.work_time_s)

    @property
    def degraded(self) -> bool:
        """True when any rank's measurement is missing or stale."""
        return bool(
            self.sim_missing or self.ana_missing
            or self.sim_stale or self.ana_stale
        )


@dataclass(frozen=True)
class Allocation:
    """Per-node power caps for both partitions (watts)."""

    sim_caps_w: np.ndarray
    ana_caps_w: np.ndarray

    def __post_init__(self) -> None:
        if (self.sim_caps_w <= 0).any() or (self.ana_caps_w <= 0).any():
            raise ValueError("caps must be positive")

    @property
    def total_w(self) -> float:
        return float(self.sim_caps_w.sum() + self.ana_caps_w.sum())

    def with_sim_total(self, total_sim_w: float, total_ana_w: float) -> "Allocation":
        """Evenly divided allocation with the given partition totals."""
        n_s, n_a = len(self.sim_caps_w), len(self.ana_caps_w)
        return Allocation(
            sim_caps_w=np.full(n_s, total_sim_w / n_s),
            ana_caps_w=np.full(n_a, total_ana_w / n_a),
        )
