"""Strictly power-aware comparator (SLURM-style).

Paper §II: "This approach aims to address power imbalances between
nodes by shifting excess power from nodes that are not at the power cap
to nodes that are at the power cap. The excess power is divided evenly
among nodes that require more power."

Implementation notes matching §VI-B:

* SLURM redistributes on a fixed wall-clock interval; to give the
  approach its best shot with a non-uniform workload the paper invokes
  it at synchronization points instead — so do we (the runner calls
  ``observe`` each sync).
* The paper's window ``w`` applies.
* The approach "takes action only if nodes are at the power cap,
  otherwise it assumes the application has available power" (§VII-A);
  with no node at its cap, nothing happens.

The decision inputs are *measured node powers*, which carry sensor
noise; combined with the spin-wait draw being counted into the average,
this is the mechanism behind the paper's observation that the
power-aware scheme "simply responds to potentially noisy differences in
measured power" and fluctuates (Fig. 4c).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.controller import PowerController
from repro.core.types import Allocation, Observation
from repro.metrics.audit import get_audit
from repro.telemetry import get_tracer

__all__ = ["PowerAwareController", "redistribute_caps"]


def redistribute_caps(
    caps: np.ndarray,
    mean_power: np.ndarray,
    lo: float,
    hi: float,
    at_cap_margin_w: float,
    reclaim_margin_w: float,
) -> tuple[np.ndarray, float, int] | None:
    """One power-aware redistribution as a pure function of its inputs.

    The unit the audit journal records and replays. Returns
    ``(new_caps, pool_w, n_receivers)`` or ``None`` when the scheme
    holds (no node at its cap, or nothing to reclaim). ``caps`` is not
    mutated.
    """
    caps = caps.copy()
    at_cap = mean_power >= caps - at_cap_margin_w
    below = ~at_cap
    if not at_cap.any():
        return None  # "only takes action if nodes are at the cap"
    if not below.any():
        return None  # nothing to reclaim

    # Reclaim headroom from under-consuming nodes (not below δ_min).
    donor_new = np.maximum(mean_power + reclaim_margin_w, lo)
    donor_new = np.minimum(donor_new, caps)  # donors never gain here
    pool = float((caps - donor_new)[below].sum())
    caps[below] = donor_new[below]

    # Divide the pool evenly among nodes that require more power,
    # clamping at δ_max; whatever cannot be placed is returned
    # evenly to every node (budget conservation).
    receivers = np.where(at_cap)[0]
    share = pool / len(receivers)
    gained = np.minimum(caps[receivers] + share, hi) - caps[receivers]
    caps[receivers] += gained
    leftover = pool - float(gained.sum())
    if leftover > 1e-9:
        caps = np.minimum(caps + leftover / len(caps), hi)
    return caps, pool, int(len(receivers))


class PowerAwareController(PowerController):
    """SLURM-like: move unused headroom to capped nodes."""

    name = "power-aware"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        window: int = 1,
        at_cap_margin_w: float = 1.0,
        reclaim_margin_w: float = 0.0,
    ) -> None:
        """``at_cap_margin_w``: a node whose measured power is within
        this margin of its cap counts as *at the cap* (needs power).
        ``reclaim_margin_w``: headroom left on a donor node above its
        measured draw so it is not starved outright."""
        super().__init__(budget_w, n_sim, n_ana, node)
        if window < 1:
            raise ValueError("window must be >= 1")
        if at_cap_margin_w < 0 or reclaim_margin_w < 0:
            raise ValueError("margins must be non-negative")
        self.window = window
        self.at_cap_margin_w = at_cap_margin_w
        self.reclaim_margin_w = reclaim_margin_w
        self._caps: np.ndarray | None = None  # concatenated [sim, ana]
        self._power_acc: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def initial_allocation(self) -> Allocation:
        alloc = self.even_split()
        self._caps = np.concatenate([alloc.sim_caps_w, alloc.ana_caps_w])
        self._audit_init(alloc)
        return alloc

    def observe(self, obs: Observation) -> Allocation | None:
        self._audit_observe(obs)
        # per-node arithmetic needs one entry per node: hold on
        # partial/empty measurements rather than mis-shape the caps
        if not self.guard_observation(obs, require_full_nodes=True):
            return None
        measured = np.concatenate([obs.sim.node_power_w, obs.ana.node_power_w])
        self._power_acc.append(measured)
        if len(self._power_acc) < self.window:
            return None
        mean_power = np.mean(self._power_acc, axis=0)
        self._power_acc.clear()

        assert self._caps is not None
        lo, hi = self.node.rapl_min_watts, self.node.tdp_watts
        decided = redistribute_caps(
            self._caps,
            mean_power,
            lo,
            hi,
            self.at_cap_margin_w,
            self.reclaim_margin_w,
        )
        if decided is None:
            return None
        caps, pool, n_receivers = decided

        audit = get_audit()
        if audit.enabled:
            before = self._caps
            audit.record_decision(
                self.name,
                obs.step,
                before=(
                    float(before[: self.n_sim].sum()),
                    float(before[self.n_sim :].sum()),
                ),
                after=(
                    float(caps[: self.n_sim].sum()),
                    float(caps[self.n_sim :].sum()),
                ),
                inputs={
                    "caps_w": before.tolist(),
                    "mean_power_w": mean_power.tolist(),
                    "lo_w": lo,
                    "hi_w": hi,
                    "at_cap_margin_w": self.at_cap_margin_w,
                    "reclaim_margin_w": self.reclaim_margin_w,
                    "n_sim": self.n_sim,
                },
                after_caps={
                    "sim": caps[: self.n_sim].tolist(),
                    "ana": caps[self.n_sim :].tolist(),
                },
            )
        tracer = get_tracer()
        if tracer.enabled:
            before = self._caps
            tracer.instant(
                "core.power-aware.decision",
                cat="core",
                step=obs.step,
                before_sim_w=float(before[: self.n_sim].sum()),
                before_ana_w=float(before[self.n_sim :].sum()),
                after_sim_w=float(caps[: self.n_sim].sum()),
                after_ana_w=float(caps[self.n_sim :].sum()),
                pool_w=pool,
                receivers=n_receivers,
            )
        self._caps = caps
        return Allocation(
            sim_caps_w=caps[: self.n_sim].copy(),
            ana_caps_w=caps[self.n_sim :].copy(),
        )
