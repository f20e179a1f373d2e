"""Controller base class and the shared δ-clamping rule.

All four strategies (static, power-aware, time-aware, SeeSAw) share:

* a global power budget ``C`` for the whole job;
* partition sizes and the node hardware envelope;
* the paper's clamping rule (§IV-A, last paragraph): per-node caps are
  confined to [δ_min, δ_max]; if one partition's nodes fall below δ_min
  (or above δ_max) they are pinned there and the *other* partition
  receives the remaining power; when both bounds are violated at once,
  handling δ_max takes priority.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.types import Allocation, Observation
from repro.metrics.audit import get_audit
from repro.telemetry import get_tracer

__all__ = ["PowerController", "clamp_partition_totals", "clamp_totals"]


def clamp_totals(
    total_sim_w: float,
    total_ana_w: float,
    n_sim: int,
    n_ana: int,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Apply the paper's δ_min/δ_max rule to partition power totals.

    Pure primitive over explicit per-node bounds ``[lo, hi]`` — this is
    what the audit replayer re-executes. Returns adjusted
    ``(total_sim, total_ana)`` such that per-node caps lie in
    ``[lo, hi]`` wherever the budget permits. The budget
    ``total_sim + total_ana`` is preserved exactly when feasible; when
    the budget itself is outside the machine's feasible envelope the
    nearest feasible allocation is returned.
    """
    if n_sim <= 0 or n_ana <= 0:
        raise ValueError("both partitions need nodes")
    budget = total_sim_w + total_ana_w

    feasible_lo = (n_sim + n_ana) * lo
    feasible_hi = (n_sim + n_ana) * hi
    budget = min(max(budget, feasible_lo), feasible_hi)

    def clamped(total_s: float) -> tuple[float, float]:
        return total_s, budget - total_s

    total_s = total_sim_w * budget / (total_sim_w + total_ana_w)

    # δ_max first (tie priority), each side, then δ_min.
    if total_s / n_sim > hi:
        total_s = hi * n_sim
    elif (budget - total_s) / n_ana > hi:
        total_s = budget - hi * n_ana
    if total_s / n_sim < lo:
        total_s = lo * n_sim
    elif (budget - total_s) / n_ana < lo:
        total_s = budget - lo * n_ana

    # A second δ_max pass: fixing a δ_min violation can push the other
    # side above δ_max when the budget is generous.
    if total_s / n_sim > hi:
        total_s = hi * n_sim
    elif (budget - total_s) / n_ana > hi:
        total_s = budget - hi * n_ana

    return clamped(total_s)


def clamp_partition_totals(
    total_sim_w: float,
    total_ana_w: float,
    n_sim: int,
    n_ana: int,
    node: NodeSpec,
) -> tuple[float, float]:
    """δ-clamping against a node's hardware envelope (see
    :func:`clamp_totals`)."""
    return clamp_totals(
        total_sim_w,
        total_ana_w,
        n_sim,
        n_ana,
        node.rapl_min_watts,
        node.tdp_watts,
    )


class PowerController(abc.ABC):
    """Base class: owns the budget, partition shapes and clamping.

    Subclasses implement :meth:`initial_allocation` and
    :meth:`observe`. ``observe`` may return ``None`` to signal "keep
    the current caps" — the runner then skips the RAPL request (but
    still pays the controller's communication overhead, as in the
    paper's overhead accounting).
    """

    #: human-readable strategy name used in reports
    name: str = "base"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
    ) -> None:
        if budget_w <= 0:
            raise ValueError("budget must be positive")
        if n_sim <= 0 or n_ana <= 0:
            raise ValueError("both partitions need nodes")
        min_needed = (n_sim + n_ana) * node.rapl_min_watts
        if budget_w < min_needed:
            raise ValueError(
                f"budget {budget_w} W below machine minimum {min_needed} W"
            )
        self.budget_w = budget_w
        self.n_sim = n_sim
        self.n_ana = n_ana
        self.node = node

    # ------------------------------------------------------------------
    def even_split(self) -> Allocation:
        """The static baseline's allocation: budget divided equally
        across *all* nodes (each node gets the same cap)."""
        per_node = self.budget_w / (self.n_sim + self.n_ana)
        total_s, total_a = clamp_partition_totals(
            per_node * self.n_sim, per_node * self.n_ana,
            self.n_sim, self.n_ana, self.node,
        )
        return self._even_allocation(total_s, total_a)

    def _even_allocation(self, total_sim_w: float, total_ana_w: float) -> Allocation:
        """Build an Allocation with evenly divided, clamped totals."""
        total_s, total_a = clamp_partition_totals(
            total_sim_w, total_ana_w, self.n_sim, self.n_ana, self.node
        )
        return Allocation(
            sim_caps_w=np.full(self.n_sim, total_s / self.n_sim),
            ana_caps_w=np.full(self.n_ana, total_a / self.n_ana),
        )

    # ------------------------------------------------------------------
    # audit / trace hooks (no-ops unless a journal/tracer is installed
    # via use_audit()/use_tracer())

    def _audit_init(self, alloc: Allocation) -> None:
        """Record the initial allocation in the ambient audit journal."""
        audit = get_audit()
        if audit.enabled:
            audit.record_init(
                self.name,
                float(alloc.sim_caps_w.sum()),
                float(alloc.ana_caps_w.sum()),
            )

    def _audit_observe(self, obs: Observation) -> None:
        """Record one synchronization's measurement as the controller
        saw it."""
        audit = get_audit()
        if audit.enabled:
            audit.record_observation(self.name, obs)

    def guard_observation(
        self, obs: Observation, require_full_nodes: bool = False
    ) -> bool:
        """Is ``obs`` sound enough to act on? False means **hold**.

        Under fault injection an observation may arrive with zero
        measured ranks in a partition (every report dropped or aged
        out) or with partial per-node arrays. Acting on such data would
        divide by zero or mis-shape the cap vectors, so the controller
        holds instead: the caller returns ``None``, current caps stay
        installed, and — since those caps were δ-clamped when decided —
        the budget and clamping invariants keep holding for free.

        ``require_full_nodes`` is for per-node strategies (power-aware,
        time-aware) whose arithmetic needs one entry per
        node; partition-total strategies tolerate surviving-rank
        aggregates. A hold lands in the audit journal (kind ``hold``)
        and is traced as a ``core.degraded_hold`` instant so resilience
        is visible in ``audit replay``; a stale-but-usable observation
        is traced as a ``core.stale_observation`` instant without
        holding.
        """
        reason: str | None = None
        if obs.sim.n_nodes == 0 or obs.ana.n_nodes == 0:
            reason = "empty_partition"
        elif require_full_nodes and (
            obs.sim.n_nodes != self.n_sim or obs.ana.n_nodes != self.n_ana
        ):
            reason = "partial_nodes"
        tracer = get_tracer()
        if tracer.enabled and (obs.sim_stale or obs.ana_stale):
            tracer.instant("core.stale_observation", cat="core", step=obs.step)
        if reason is None:
            return True
        audit = get_audit()
        if audit.enabled:
            audit.record_hold(
                self.name,
                obs.step,
                reason,
                {
                    "sim_nodes": obs.sim.n_nodes,
                    "ana_nodes": obs.ana.n_nodes,
                    "sim_missing": obs.sim_missing,
                    "ana_missing": obs.ana_missing,
                    "sim_stale": obs.sim_stale,
                    "ana_stale": obs.ana_stale,
                },
            )
        if tracer.enabled:
            tracer.instant(
                "core.degraded_hold", cat="core", step=obs.step, reason=reason
            )
        return False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_allocation(self) -> Allocation:
        """Caps installed before the first synchronization."""

    @abc.abstractmethod
    def observe(self, obs: Observation) -> Allocation | None:
        """Digest one synchronization's measurements.

        Returns the new allocation, or ``None`` to keep current caps.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} budget={self.budget_w:.0f}W "
            f"sim={self.n_sim} ana={self.n_ana}>"
        )
