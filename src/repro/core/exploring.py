"""Exploring SeeSAw: probe steps to escape local optima.

The paper observes (§VII-B2) that SeeSAw "may be susceptible to local
optima" — on low-demand analyses it settled at 115–117 W per simulation
node where the time-aware comparator's 120–121 W performed better — and
lists "methods to overcome local optima" as future work (§VIII).

This controller adds a simple, safe hill-climbing probe on top of the
standard SeeSAw loop:

* every ``explore_every`` allocation rounds, it perturbs the settled
  split by ``probe_w`` watts per node (alternating direction);
* it then compares the objective — the slower partition's work time,
  ``max(T_S, T_A)``, exactly the paper's ``min max`` objective — before
  and after the probe over ``probe_rounds`` synchronizations;
* an improving probe is kept (and becomes the new EWMA reference, so
  subsequent SeeSAw updates continue from there); a worsening probe is
  reverted.

Probes are bounded by the δ envelope and the budget, so the scheme
never violates the power constraint — it only trades a few
synchronizations of possibly-suboptimal allocation for the chance to
escape a plateau where the energy linearization is locally
self-consistent but globally suboptimal.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.controller import clamp_partition_totals
from repro.core.seesaw import SeeSAwController
from repro.core.types import Allocation, Observation

__all__ = ["ExploringSeeSAwController"]


class ExploringSeeSAwController(SeeSAwController):
    """SeeSAw + periodic hill-climbing probes on max(T_S, T_A)."""

    name = "seesaw-exploring"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        window: int = 1,
        sim_share: float = 0.5,
        probe_w: float = 3.0,
        explore_every: int = 12,
        probe_rounds: int = 2,
    ) -> None:
        """``probe_w``: per-node watts moved during a probe.
        ``explore_every``: allocation rounds between probes.
        ``probe_rounds``: synchronizations the probe is held and
        averaged over before judging it."""
        super().__init__(
            budget_w, n_sim, n_ana, node, window=window, sim_share=sim_share
        )
        if probe_w <= 0 or explore_every < 2 or probe_rounds < 1:
            raise ValueError("invalid exploration parameters")
        self.probe_w = probe_w
        self.explore_every = explore_every
        self.probe_rounds = probe_rounds
        self._rounds_since_probe = 0
        self._probe_direction = +1  # +1: toward simulation
        self._probe_state: dict | None = None
        #: (step, kept) log of probe outcomes for diagnostics
        self.probe_log: list[tuple[int, bool]] = []

    # ------------------------------------------------------------------
    def _objective(self, obs: Observation) -> float:
        return max(obs.sim.work_time_s, obs.ana.work_time_s)

    def _probe_allocation(self) -> tuple[float, float]:
        delta = self._probe_direction * self.probe_w
        total_s = self._prev_total_sim + delta * self.n_sim
        total_a = self._prev_total_ana - delta * self.n_sim
        return clamp_partition_totals(
            total_s, total_a, self.n_sim, self.n_ana, self.node
        )

    def observe(self, obs: Observation) -> Allocation | None:
        # a degraded observation would corrupt the probe objective
        # (work times of surviving ranks only): hold, don't sample
        if not self.guard_observation(obs):
            return None
        if self._probe_state is not None:
            state = self._probe_state
            state["samples"].append(self._objective(obs))
            if len(state["samples"]) < self.probe_rounds:
                return None  # hold the probe
            probed = float(np.mean(state["samples"]))
            keep = probed < state["baseline"]
            self.probe_log.append((obs.step, keep))
            self._probe_state = None
            self._rounds_since_probe = 0
            if keep:
                # the probe becomes the new EWMA reference; SeeSAw
                # resumes from the improved point
                self._prev_total_sim = state["totals"][0]
                self._prev_total_ana = state["totals"][1]
                return None  # caps already installed by the probe
            # revert and alternate the next probe's direction
            self._probe_direction *= -1
            total_s, total_a = state["reverted"]
            return Allocation(
                sim_caps_w=np.full(self.n_sim, total_s / self.n_sim),
                ana_caps_w=np.full(self.n_ana, total_a / self.n_ana),
            )

        baseline = self._objective(obs)
        decision = super().observe(obs)
        self._rounds_since_probe += 1
        if (
            decision is not None
            and self._rounds_since_probe >= self.explore_every
        ):
            reverted = (self._prev_total_sim, self._prev_total_ana)
            total_s, total_a = self._probe_allocation()
            if abs(total_s - reverted[0]) < 1e-9:
                # envelope already binding in this direction; flip
                self._probe_direction *= -1
                return decision
            self._probe_state = {
                "baseline": baseline,
                "totals": (total_s, total_a),
                "reverted": reverted,
                "samples": [],
            }
            return Allocation(
                sim_caps_w=np.full(self.n_sim, total_s / self.n_sim),
                ana_caps_w=np.full(self.n_ana, total_a / self.n_ana),
            )
        return decision
