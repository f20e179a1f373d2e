"""SeeSAw: energy-feedback power allocation (paper §IV).

The algorithm, per synchronization ``i`` and allocation round ``j``
(one round per ``w`` synchronizations):

1. average the last ``w`` intervals' time and power per partition
   (window averaging — noise guard #1)::

       P_j^S = mean(p_i^S),   T_j^S = mean(t_i^S)          (paper, §IV-A)

2. approximate the time↔power relationship as linear via

       α_j^S = 1 / (T_j^S · P_j^S)                          (Eq. 1)

3. solve for the optimal split under budget ``C`` with the time-equality
   optimality condition ``T^S = T^A``::

       P_{j+1}^{OPT_S} = C · α_j^A / (α_j^S + α_j^A)        (Eq. 2)

4. damp the step with an EWMA whose weight is the optimal share::

       r_{j+1}^S = P_{j+1}^{OPT_S} / C                      (Eq. 3)
       P_{j+1}^{new_S} = r·P^{OPT_S} + (1−r)·P_prev^S       (Eq. 4)

   **Erratum note** — Eq. 4 as printed in the paper multiplies
   ``P^{OPT}`` by both ``r`` and ``(1-r)``, which degenerates to
   ``P^{OPT}`` itself. The surrounding text ("past information is
   consolidated with the present using an exponentially weighted moving
   average", "reduce the rate at which we change power") requires the
   ``(1−r)`` term to weight the *previous* allocation, which is what we
   implement. The printed form is the fixed point of ours (when
   ``P_prev == P^{OPT}`` they coincide) — ``tests/core/test_seesaw_math``
   checks both properties.

5. clamp per the δ rule and divide evenly per node (power is controlled
   per voltage plane — per node on Theta).

Derivation check for Eq. 2: the linear model says time scales as
``T' = 1/(α·P')``; imposing ``T'^S = T'^A`` with ``P'^S + P'^A = C``
gives ``α^S·P'^S = α^A·P'^A`` and hence Eq. 2. The worked example of
Figure 2 (90 W/100 s vs 120 W/60 s under 210 W → both finish at ~77 s
after moving ~3 W) falls out of these equations and is pinned by a unit
test.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.core.controller import PowerController, clamp_totals
from repro.core.types import Allocation, Observation
from repro.metrics.audit import get_audit
from repro.telemetry import get_tracer
from repro.util.stats import RunningMean

__all__ = ["SeeSAwController", "decide_totals", "optimal_split"]


def optimal_split(
    t_sim: float, p_sim: float, t_ana: float, p_ana: float, budget_w: float
) -> tuple[float, float]:
    """Eqs. 1–2: the optimal partition power totals for the next round.

    All arguments are partition-level (total watts, slowest-rank
    seconds). Returns ``(P_opt_sim, P_opt_ana)`` with
    ``P_opt_sim + P_opt_ana == budget_w``.
    """
    if min(t_sim, p_sim, t_ana, p_ana) <= 0:
        raise ValueError("times and powers must be positive")
    alpha_s = 1.0 / (t_sim * p_sim)
    alpha_a = 1.0 / (t_ana * p_ana)
    p_opt_s = budget_w * alpha_a / (alpha_s + alpha_a)
    return p_opt_s, budget_w - p_opt_s


def decide_totals(
    t_sim_s: float,
    p_sim_w: float,
    t_ana_s: float,
    p_ana_w: float,
    budget_w: float,
    prev_sim_w: float,
    prev_ana_w: float,
    feedback: str,
    damping: str,
    n_sim: int,
    n_ana: int,
    lo_w: float,
    hi_w: float,
) -> tuple[float, float, float]:
    """One complete SeeSAw decision (Eqs. 1–4 plus the δ clamp) as a
    pure function of its inputs.

    This is the unit the audit journal records and replays: given the
    windowed measurements and the previous allocation it returns
    ``(P_opt_sim, total_sim, total_ana)`` deterministically.
    :meth:`SeeSAwController.observe` delegates here, so a recorded
    decision and its replay run the identical arithmetic.
    """
    # Eqs. 1–2 (the "time" ablation drops power from Eq. 1).
    if feedback == "energy":
        p_opt_s, p_opt_a = optimal_split(
            t_sim_s, p_sim_w, t_ana_s, p_ana_w, budget_w
        )
    else:
        p_opt_s, p_opt_a = optimal_split(t_sim_s, 1.0, t_ana_s, 1.0, budget_w)

    if damping == "ewma":
        # Eqs. 3–4 (EWMA against the previous *allocation*).
        r_s = p_opt_s / budget_w
        r_a = p_opt_a / budget_w
        new_s = r_s * p_opt_s + (1.0 - r_s) * prev_sim_w
        new_a = r_a * p_opt_a + (1.0 - r_a) * prev_ana_w
        # Budget conservation: the two EWMA steps are independent,
        # so renormalize onto the budget before clamping.
        scale = budget_w / (new_s + new_a)
        new_s *= scale
        new_a *= scale
    else:
        new_s, new_a = p_opt_s, p_opt_a

    total_s, total_a = clamp_totals(new_s, new_a, n_sim, n_ana, lo_w, hi_w)
    return p_opt_s, total_s, total_a


class SeeSAwController(PowerController):
    """The paper's contribution: time+power (energy) feedback."""

    name = "seesaw"

    def __init__(
        self,
        budget_w: float,
        n_sim: int,
        n_ana: int,
        node: NodeSpec,
        window: int = 1,
        sim_share: float = 0.5,
        feedback: str = "energy",
        damping: str = "ewma",
    ) -> None:
        """``window`` is the paper's ``w``: reallocate every ``w``
        synchronizations, averaging measurements over the window.
        ``sim_share`` sets the initial split (0.5 = even; Fig. 7 uses
        unbalanced starts).

        ``feedback`` and ``damping`` exist for ablation studies:

        * ``feedback="time"`` replaces Eq. 1's energy linearization
          with a time-only one (``alpha = 1/T``), isolating the paper's
          claim that *energy* is the right metric;
        * ``damping="none"`` jumps straight to Eq. 2's optimum without
          the Eq. 3-4 EWMA, isolating the noise-guarding role of the
          damping.
        """
        super().__init__(budget_w, n_sim, n_ana, node)
        if window < 1:
            raise ValueError("window must be >= 1")
        if feedback not in ("energy", "time"):
            raise ValueError("feedback must be 'energy' or 'time'")
        if damping not in ("ewma", "none"):
            raise ValueError("damping must be 'ewma' or 'none'")
        self.window = window
        self.sim_share = sim_share
        self.feedback = feedback
        self.damping = damping
        self._t_sim = RunningMean()
        self._p_sim = RunningMean()
        self._t_ana = RunningMean()
        self._p_ana = RunningMean()
        self._prev_total_sim: float | None = None
        self._prev_total_ana: float | None = None
        #: history of (step, P_opt_sim, P_new_sim) for diagnostics
        self.decision_log: list[tuple[int, float, float]] = []

    # ------------------------------------------------------------------
    def initial_allocation(self) -> Allocation:
        if self.sim_share == 0.5:
            alloc = self.even_split()
        else:
            per_sim = 2.0 * self.sim_share
            per_ana = 2.0 * (1.0 - self.sim_share)
            unit = self.budget_w / (
                per_sim * self.n_sim + per_ana * self.n_ana
            )
            alloc = self._even_allocation(
                per_sim * unit * self.n_sim, per_ana * unit * self.n_ana
            )
        self._prev_total_sim = float(alloc.sim_caps_w.sum())
        self._prev_total_ana = float(alloc.ana_caps_w.sum())
        self._audit_init(alloc)
        return alloc

    def observe(self, obs: Observation) -> Allocation | None:
        self._audit_observe(obs)
        if not self.guard_observation(obs):
            return None  # degraded measurement: hold current caps
        # Accumulate this synchronization into the window.
        self._t_sim.add(obs.sim.work_time_s)
        self._p_sim.add(obs.sim.total_power_w)
        self._t_ana.add(obs.ana.work_time_s)
        self._p_ana.add(obs.ana.total_power_w)
        if self._t_sim.count < self.window:
            return None

        t_s, p_s = self._t_sim.mean, self._p_sim.mean
        t_a, p_a = self._t_ana.mean, self._p_ana.mean
        for m in (self._t_sim, self._p_sim, self._t_ana, self._p_ana):
            m.reset()

        if min(t_s, p_s, t_a, p_a) <= 0:
            return None  # degenerate measurement; hold

        assert self._prev_total_sim is not None
        assert self._prev_total_ana is not None
        lo, hi = self.node.rapl_min_watts, self.node.tdp_watts
        p_opt_s, total_s, total_a = decide_totals(
            t_s,
            p_s,
            t_a,
            p_a,
            self.budget_w,
            self._prev_total_sim,
            self._prev_total_ana,
            self.feedback,
            self.damping,
            self.n_sim,
            self.n_ana,
            lo,
            hi,
        )
        audit = get_audit()
        if audit.enabled:
            # Predicted post-decision slack from the linear model
            # T' = 1/(α·P'): each partition's predicted time under its
            # new total, using this round's α estimates (the "time"
            # ablation's α drops the measured power, exactly as Eq. 1).
            w_s = p_s if self.feedback == "energy" else 1.0
            w_a = p_a if self.feedback == "energy" else 1.0
            pred_t_s = t_s * w_s / total_s
            pred_t_a = t_a * w_a / total_a
            audit.record_decision(
                self.name,
                obs.step,
                before=(self._prev_total_sim, self._prev_total_ana),
                after=(total_s, total_a),
                inputs={
                    "t_sim_s": t_s,
                    "p_sim_w": p_s,
                    "t_ana_s": t_a,
                    "p_ana_w": p_a,
                    "budget_w": self.budget_w,
                    "prev_sim_w": self._prev_total_sim,
                    "prev_ana_w": self._prev_total_ana,
                    "feedback": self.feedback,
                    "damping": self.damping,
                    "n_sim": self.n_sim,
                    "n_ana": self.n_ana,
                    "lo_w": lo,
                    "hi_w": hi,
                },
                predicted_slack_s=abs(pred_t_s - pred_t_a),
            )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "core.seesaw.decision",
                cat="core",
                step=obs.step,
                before_sim_w=self._prev_total_sim,
                before_ana_w=self._prev_total_ana,
                opt_sim_w=p_opt_s,
                after_sim_w=total_s,
                after_ana_w=total_a,
            )
            tracer.counter("core.reallocations", cat="core").inc()
        self._prev_total_sim = total_s
        self._prev_total_ana = total_a
        self.decision_log.append((obs.step, p_opt_s, total_s))
        return Allocation(
            sim_caps_w=np.full(self.n_sim, total_s / self.n_sim),
            ana_caps_w=np.full(self.n_ana, total_a / self.n_ana),
        )
