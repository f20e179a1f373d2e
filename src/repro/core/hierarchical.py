"""Hierarchical SeeSAw: per-node allocation within each partition.

The paper's future-work section (§VIII) proposes: "To add support for
heterogeneous hardware within the simulation (analysis) partition,
power should be allocated through a hierarchical decision-making
process that breaks down SeeSAw's power allocation to the individual
compute units."

This controller implements that two-level scheme:

* **level 1** — the paper's partition split (Eqs. 1–4, inherited
  unchanged from :class:`SeeSAwController` semantics): how much of the
  budget each partition receives;
* **level 2** — within each partition, the total is divided across
  nodes in proportion to each node's *energy share* (per-node time ×
  per-node power), the same linearization applied one level down, with
  EWMA damping against the previous per-node split and water-filling
  against the [δ_min, δ_max] envelope.

On homogeneous hardware every node's share converges to 1/n and the
controller reduces to flat SeeSAw; with heterogeneous nodes (slow SKU,
degraded parts, bad thermal seats) the slow nodes receive more power,
lifting the partition's *slowest-rank* time that actually gates the
job. The ``hierarchical`` benchmark demonstrates the gain.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.seesaw import SeeSAwController
from repro.core.types import Allocation, Observation

__all__ = ["HierarchicalSeeSAwController", "waterfill"]


def waterfill(
    targets: np.ndarray, total: float, lo: float, hi: float
) -> np.ndarray:
    """Scale ``targets`` onto ``total`` subject to per-element bounds.

    Elements are first scaled proportionally, then clamped into
    ``[lo, hi]``; the surplus/deficit is redistributed iteratively over
    the unclamped elements. If the bounds make the total infeasible,
    the nearest feasible vector is returned.
    """
    n = len(targets)
    if n == 0:
        raise ValueError("empty allocation")
    total = min(max(total, n * lo), n * hi)
    targets = np.maximum(np.asarray(targets, dtype=float), 1e-12)
    out = targets * (total / targets.sum())
    for _ in range(n):
        clipped = np.clip(out, lo, hi)
        residual = total - clipped.sum()
        if abs(residual) < 1e-9:
            return clipped
        free = (clipped > lo + 1e-12) & (clipped < hi - 1e-12)
        if residual > 0:
            free = clipped < hi - 1e-12
        else:
            free = clipped > lo + 1e-12
        if not np.any(free):
            return clipped
        out = clipped
        out[free] += residual / free.sum()
    return np.clip(out, lo, hi)


class HierarchicalSeeSAwController(SeeSAwController):
    """Two-level SeeSAw (partition split, then per-node split)."""

    name = "seesaw-hierarchical"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        window: int = 1,
        sim_share: float = 0.5,
        node_ewma: float = 0.4,
        deadband: float = 0.05,
    ) -> None:
        """``node_ewma`` is the weight on the newest per-node energy
        shares (level 2 uses a fixed damping weight — the level-1
        r = P_OPT/C trick has no per-node analogue).

        ``deadband`` is the relative deviation from a perfectly even
        split below which the level-2 shares snap back to uniform:
        per-node measurement noise (~3 % epoch jitter) must not be
        chased on homogeneous hardware, where any cap spread only
        manufactures stragglers. Genuine heterogeneity (many-% node
        speed differences) clears the band immediately.
        """
        super().__init__(
            budget_w, n_sim, n_ana, node, window=window, sim_share=sim_share
        )
        if not 0.0 < node_ewma <= 1.0:
            raise ValueError("node_ewma must be in (0, 1]")
        if deadband < 0:
            raise ValueError("deadband must be non-negative")
        self.node_ewma = node_ewma
        self.deadband = deadband
        self._node_shares_sim: np.ndarray | None = None
        self._node_shares_ana: np.ndarray | None = None
        # per-node measurement accumulators over the window
        self._acc: dict[str, list[np.ndarray]] = {"sim": [], "ana": []}

    # ------------------------------------------------------------------
    def initial_allocation(self) -> Allocation:
        alloc = super().initial_allocation()
        self._node_shares_sim = np.full(self.n_sim, 1.0 / self.n_sim)
        self._node_shares_ana = np.full(self.n_ana, 1.0 / self.n_ana)
        return alloc

    def observe(self, obs: Observation) -> Allocation | None:
        # the level-2 split needs one energy sample per node: hold on
        # partial/empty measurements before touching the accumulators
        if not self.guard_observation(obs, require_full_nodes=True):
            return None
        # accumulate per-node energies for the level-2 split
        self._acc["sim"].append(
            obs.sim.node_epoch_times_s * obs.sim.node_power_w
        )
        self._acc["ana"].append(
            obs.ana.node_epoch_times_s * obs.ana.node_power_w
        )
        flat = super().observe(obs)
        if flat is None:
            return None

        sim_energy = np.mean(self._acc["sim"], axis=0)
        ana_energy = np.mean(self._acc["ana"], axis=0)
        self._acc = {"sim": [], "ana": []}

        total_sim = float(flat.sim_caps_w.sum())
        total_ana = float(flat.ana_caps_w.sum())
        self._node_shares_sim = self._update_shares(
            self._node_shares_sim, sim_energy
        )
        self._node_shares_ana = self._update_shares(
            self._node_shares_ana, ana_energy
        )
        lo, hi = self.node.rapl_min_watts, self.node.tdp_watts
        return Allocation(
            sim_caps_w=waterfill(
                self._node_shares_sim * total_sim, total_sim, lo, hi
            ),
            ana_caps_w=waterfill(
                self._node_shares_ana * total_ana, total_ana, lo, hi
            ),
        )

    def _update_shares(
        self, prev: np.ndarray, energies: np.ndarray
    ) -> np.ndarray:
        energies = np.maximum(energies, 1e-12)
        new = energies / energies.sum()
        blended = self.node_ewma * new + (1.0 - self.node_ewma) * prev
        blended = blended / blended.sum()
        n = len(blended)
        if float(np.abs(blended * n - 1.0).max()) < self.deadband:
            return np.full(n, 1.0 / n)
        return blended
