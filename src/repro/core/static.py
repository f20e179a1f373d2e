"""Static baseline: equal per-node split, never changed.

This is the paper's baseline (§VII): "The baseline equally divides the
global power budget between simulation and analysis nodes. The power
cap per node remains fixed (static) and is maintained by RAPL."

A variant with an *unbalanced* initial split supports the Figure 7
experiment (different initial power distributions).
"""

from __future__ import annotations

from repro.cluster.node import NodeSpec
from repro.core.controller import PowerController
from repro.core.types import Allocation, Observation

__all__ = ["StaticController"]


class StaticController(PowerController):
    """Fixed allocation for the lifetime of the job."""

    name = "static"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        sim_share: float = 0.5,
    ) -> None:
        """``sim_share`` is the fraction of the budget given to the
        simulation partition *as a whole* when the two partitions are
        equally sized; more precisely the per-node sim:ana cap ratio is
        ``sim_share : (1 - sim_share)``. The default reproduces the
        equal split."""
        super().__init__(budget_w, n_sim, n_ana, node)
        if not 0.0 < sim_share < 1.0:
            raise ValueError("sim_share must be in (0, 1)")
        self.sim_share = sim_share

    def initial_allocation(self) -> Allocation:
        if self.sim_share == 0.5:
            alloc = self.even_split()
        else:
            # Unbalanced start (Fig. 7): per-node caps in the requested
            # ratio, scaled to exhaust the budget.
            per_sim = 2.0 * self.sim_share
            per_ana = 2.0 * (1.0 - self.sim_share)
            unit = self.budget_w / (
                per_sim * self.n_sim + per_ana * self.n_ana
            )
            alloc = self._even_allocation(
                per_sim * unit * self.n_sim, per_ana * unit * self.n_ana
            )
        self._audit_init(alloc)
        return alloc

    def observe(self, obs: Observation) -> Allocation | None:
        self._audit_observe(obs)
        # static never reallocates, but still flags degraded input so
        # holds are visible in the audit journal under faults
        self.guard_observation(obs)
        return None
