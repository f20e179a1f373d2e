"""Strictly time-aware comparator (GEOPM power-balancer style).

Paper §II: "Given a power budget and an application loop, this approach
slows down nodes which arrived at the end of the iteration first, and
speeds up the slower nodes by shifting a specific amount of power. The
rate of change in power decreases over time until a user-configured
minimum. Each node finds the median runtime of its respective ranks. A
target runtime is designated corresponding to some percentage below the
maximum median runtime of all nodes. The higher the percentage, the
more reactive the algorithm is. If there is slack power, it is
redistributed to all nodes equally."

Implementation notes:

* Invoked at **every** synchronization regardless of ``w`` (§VI-B:
  "Changing w does not have an effect, to mimic the original intended
  behavior").
* The per-node signal is the node's **epoch time** as a system-level
  tool observes it (``node_epoch_times_s`` in the measurement). Unlike
  SeeSAw's instrumented pre-synchronization times, this signal cannot
  cleanly separate application work from time spent inside MPI — the
  paper's central argument for developer knowledge (§I, §IV). The
  workload layer models that as attribution jitter on top of the work
  time.
* Nodes faster than ``(1 - reactivity) * max_median`` give up the
  current power step; the collected pool is divided among the slower
  nodes; slack (budget minus installed caps) is spread over all nodes.
* The step decays geometrically to a floor — after the decay the
  balancer cannot undo an early wrong-direction move quickly, which is
  the failure mode of Fig. 4b and Fig. 5b.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.controller import PowerController
from repro.core.types import Allocation, Observation
from repro.metrics.audit import get_audit
from repro.telemetry import get_tracer

__all__ = ["TimeAwareController", "balance_caps"]


def balance_caps(
    caps: np.ndarray,
    times: np.ndarray,
    eta: float,
    reactivity: float,
    budget_w: float,
    lo: float,
    hi: float,
) -> tuple[np.ndarray, float]:
    """One time-aware balancing step as a pure function of its inputs.

    The unit the audit journal records and replays: ``eta`` is the
    (already decayed-from) power step for this invocation. Returns
    ``(new_caps, slack_w)``; ``caps`` is not mutated.
    """
    caps = caps.copy()
    target = (1.0 - reactivity) * float(times.max())
    fast = times < target
    slow = ~fast

    if fast.any() and slow.any():
        # Fast nodes give up eta (not below δ_min).
        new_fast = np.maximum(caps[fast] - eta, lo)
        pool = float((caps[fast] - new_fast).sum())
        caps[fast] = new_fast
        # Pool divided among the slower nodes, clamped at δ_max.
        receivers = np.where(slow)[0]
        share = pool / len(receivers)
        gained = np.minimum(caps[receivers] + share, hi) - caps[receivers]
        caps[receivers] += gained

    # Slack power: budget not currently installed is spread evenly.
    slack = budget_w - float(caps.sum())
    if slack > 1e-9:
        caps = np.minimum(caps + slack / len(caps), hi)
    return caps, slack


class TimeAwareController(PowerController):
    """GEOPM-power-balancer-like: equalize per-node iteration times."""

    name = "time-aware"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        step_w: float = 8.0,
        step_decay: float = 0.75,
        step_min_w: float = 0.2,
        reactivity: float = 0.15,
    ) -> None:
        """``step_w``: initial per-adjustment power shift per node.
        ``step_decay``: geometric decay per invocation. ``step_min_w``:
        the user-configured minimum rate of change. ``reactivity``: the
        percentage below the max median runtime that defines the target
        (higher = more reactive)."""
        super().__init__(budget_w, n_sim, n_ana, node)
        if step_w <= 0 or step_min_w <= 0 or not 0 < step_decay <= 1:
            raise ValueError("invalid step parameters")
        if not 0 < reactivity < 1:
            raise ValueError("reactivity must be in (0, 1)")
        self.step_w = step_w
        self.step_decay = step_decay
        self.step_min_w = step_min_w
        self.reactivity = reactivity
        self._current_step = step_w
        self._caps: np.ndarray | None = None

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
        times = np.concatenate(
            [obs.sim.node_epoch_times_s, obs.ana.node_epoch_times_s]
        )
        assert self._caps is not None
        lo, hi = self.node.rapl_min_watts, self.node.tdp_watts

        eta = self._current_step
        self._current_step = max(
            self.step_min_w, self._current_step * self.step_decay
        )
        caps, slack = balance_caps(
            self._caps, times, eta, self.reactivity, self.budget_w, lo, hi
        )

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
                    "times_s": times.tolist(),
                    "eta_w": eta,
                    "reactivity": self.reactivity,
                    "budget_w": self.budget_w,
                    "lo_w": lo,
                    "hi_w": hi,
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
                "core.time-aware.decision",
                cat="core",
                step=obs.step,
                before_sim_w=float(before[: self.n_sim].sum()),
                before_ana_w=float(before[self.n_sim :].sum()),
                after_sim_w=float(caps[: self.n_sim].sum()),
                after_ana_w=float(caps[self.n_sim :].sum()),
                step_w=eta,
                slack_w=max(slack, 0.0),
            )
        self._caps = caps
        return Allocation(
            sim_caps_w=caps[: self.n_sim].copy(),
            ana_caps_w=caps[self.n_sim :].copy(),
        )
