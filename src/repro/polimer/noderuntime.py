"""Per-rank node runtime: compute execution and energy accounting.

Binds one simulated MPI rank to one node's power domain (the paper's
deployment: power is controlled per node, one PoLiMER monitor rank per
node). Provides:

* :meth:`NodeRuntime.compute` — an awaitable that advances virtual time
  by the duration of ``work`` seconds-at-base-frequency of a given
  phase kind under the node's current RAPL cap;
* a RAPL-style monotone **energy counter**: compute energy is
  integrated exactly by the phase executor; the gaps between compute
  phases (MPI waits, synchronization) are charged at the spin-wait
  draw, clipped by the cap, when the counter is read.
"""

from __future__ import annotations

from repro.cluster.node import NodeSpec
from repro.des.engine import Engine
from repro.faults.injector import get_faults
from repro.power.execution import execute_phase
from repro.power.model import PhaseKind
from repro.power.rapl import CapMode, RaplDomainArray
from repro.telemetry import get_tracer

__all__ = ["NodeRuntime"]


class _ComputeAwaitable:
    """Awaitable executing one compute phase on a node runtime.

    Module-level (instead of a per-call class definition) because
    ``compute`` sits on the per-step hot path of every rank.
    """

    __slots__ = ("runtime", "kind", "work_s", "noise")

    def __init__(self, runtime: "NodeRuntime", kind, work_s: float, noise):
        self.runtime = runtime
        self.kind = kind
        self.work_s = work_s
        self.noise = noise

    def __sim_await__(self, process):
        runtime = self.runtime
        kind = self.kind
        now = runtime.engine.now
        noise = self.noise
        stall = 0.0
        faults = runtime._faults
        if faults is not None:
            # straggler: multiplies effective work like OS noise does;
            # outage: the phase cannot start until the node respawns —
            # the stall gap is charged at the wait draw by the energy
            # counter, like any other idle gap
            noise = noise * faults.slowdown_factor(now, runtime.fault_rank)
            stall = faults.outage_extra(now, runtime.fault_rank)
        outcome = execute_phase(
            kind,
            runtime.node,
            self.work_s,
            runtime.domain,
            t_start=now + stall,
            noise_factors=noise,
        )
        # one node per runtime: read the element, not ndarray.max()
        duration = float(outcome.durations[0])
        energy_j = float(outcome.energy_joules[0])
        runtime._compute_energy_j += energy_j
        runtime._busy_s += duration
        runtime._counter_cache = None  # energy advanced: invalidate
        tracer = runtime._tracer
        if tracer is not None:
            cap_w = runtime.current_cap_w
            limited = cap_w < float(
                kind.demand(runtime.node, runtime.node.f_turbo)
            )
            tracer.complete(
                f"phase.{kind.name}",
                duration,
                cat="power",
                tid=runtime.trace_tid,
                ts=now + stall,
                energy_j=energy_j,
                cap_w=cap_w,
                limited=limited,
            )
        runtime.engine.schedule(
            stall + duration, lambda: process._advance(stall + duration)
        )


class NodeRuntime:
    """One node's execution/power state in the per-rank DES world."""

    def __init__(
        self,
        engine: Engine,
        node: NodeSpec,
        initial_cap_w: float,
        cap_mode: CapMode = CapMode.LONG,
        actuation_delay_s: float = 0.010,
    ) -> None:
        self.engine = engine
        self.node = node
        self.domain = RaplDomainArray(
            node,
            1,
            initial_cap_w,
            mode=cap_mode,
            actuation_delay_s=actuation_delay_s,
        )
        self._compute_energy_j = 0.0
        self._busy_s = 0.0
        self._created_at = engine.now
        #: memoized (now, cap_w, value) of the last energy_counter_j()
        #: read — the polimer manager reads the counter several times
        #: per synchronization at the same instant. Invalidated on
        #: clock advance, cap change (both via the key) and on every
        #: compute-energy update (explicitly, since those can land
        #: without the clock moving).
        self._counter_cache: tuple[float, float, float] | None = None
        #: trace lane for this node's phase spans (rank + 1; 0 = engine)
        self.trace_tid = 0
        #: world rank this node hosts, for rank-targeted fault windows;
        #: set by the PowerManager (None = matches all-rank faults only)
        self.fault_rank: int | None = None
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        faults = get_faults()
        self._faults = faults if faults.enabled and faults.active else None

    # ------------------------------------------------------------------
    def compute(self, kind: PhaseKind, work_s: float, noise: float = 1.0):
        """Awaitable executing ``work_s`` of ``kind`` on this node.

        Usage inside a rank generator::

            yield node.compute(FORCE, 0.8)
        """
        return _ComputeAwaitable(self, kind, work_s, noise)

    # ------------------------------------------------------------------
    @property
    def current_cap_w(self) -> float:
        caps, _ = self.domain.segment_at(self.engine.now)
        return float(caps[0])

    def request_cap(self, cap_w: float) -> None:
        """Request a new cap, effective after the actuation delay."""
        self.domain.request_caps(
            cap_w, now=self.engine.now, fault_rank=self.fault_rank
        )

    def energy_counter_j(self) -> float:
        """Monotone cumulative energy, RAPL-counter style.

        Idle/wait gaps up to "now" are charged at ``min(p_wait, cap)``.
        Reads at an unchanged (clock, cap) point are served from the
        memoized last value; compute completions invalidate it.
        """
        now = self.engine.now
        cap = self.current_cap_w
        cached = self._counter_cache
        if cached is not None and cached[0] == now and cached[1] == cap:
            return cached[2]
        gap = (now - self._created_at) - self._busy_s
        gap = max(gap, 0.0)
        wait_draw = min(self.node.p_wait_watts, cap)
        value = self._compute_energy_j + gap * wait_draw
        self._counter_cache = (now, cap, value)
        return value

    def mean_power_w(self, t0: float, e0_j: float) -> float:
        """Average power since a previous counter reading at ``t0``."""
        now = self.engine.now
        if now <= t0:
            return min(self.node.p_wait_watts, self.current_cap_w)
        return (self.energy_counter_j() - e0_j) / (now - t0)
