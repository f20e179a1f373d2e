"""RAPL power-capping emulation.

Models the behaviour of Intel RAPL as deployed on Theta (paper §VI-A,
§VII-A):

* caps are clamped to the supported range (98 W … TDP);
* a new cap request takes effect only after an **actuation delay**
  (10 ms on Theta's CPUs — §VII-E);
* the **long-term** window (1 s moving average) is the default
  enforcement: the draw of a throttled phase averages to the cap;
* enabling the **short-term** window additionally (9.766 ms) makes RAPL
  limit *slightly below* the requested power and increases run-to-run
  variability (Table I) — we model the undershoot as a multiplicative
  factor and let :mod:`repro.cluster.noise` widen its noise draw for
  this mode.

One :class:`RaplDomainArray` manages the caps of a whole partition as
numpy arrays, which is what the vectorized proxy jobs use; a
single-node domain is just an array of length 1.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from repro.cluster.node import NodeSpec
from repro.faults.injector import get_faults
from repro.telemetry import get_tracer
from repro.util.units import MS

__all__ = ["CapMode", "RaplDomainArray"]


class CapMode(enum.Enum):
    """Which RAPL windows are armed (Table I's three cap types)."""

    NONE = "none"  #: no capping — nodes run unconstrained (cap = TDP)
    LONG = "long"  #: long-term (1 s) window only — the paper's default
    LONG_SHORT = "long_short"  #: both windows — strict but noisy

    @property
    def undershoot(self) -> float:
        """Fraction of the requested cap actually enforced.

        With both windows armed, "RAPL limits the power slightly below
        the requested power" (§VII-A).
        """
        return 0.985 if self is CapMode.LONG_SHORT else 1.0


def _valid_request(caps_watts) -> np.ndarray:
    """``caps_watts`` as a float array, once it is known to be a valid
    cap request: non-empty, finite and strictly positive."""
    requested = np.asarray(caps_watts, dtype=float)
    if requested.size == 0:
        raise ValueError("empty cap request")
    if not np.isfinite(requested).all():
        raise ValueError(f"cap request contains non-finite watts: {requested!r}")
    if (requested <= 0.0).any():
        raise ValueError(f"cap request contains non-positive watts: {requested!r}")
    return requested


class RaplDomainArray:
    """Per-node power caps for a set of nodes, with actuation latency.

    Parameters
    ----------
    node:
        Hardware envelope used for clamping.
    n_nodes:
        Number of nodes in the domain.
    initial_cap_watts:
        Cap installed at time 0 (scalar or per-node array), validated
        as a cap request is. Ignored and pinned to TDP when ``mode`` is
        :attr:`CapMode.NONE`.
    mode:
        Which RAPL windows are armed.
    actuation_delay_s:
        Seconds between a cap request and it taking effect.
    """

    def __init__(
        self,
        node: NodeSpec,
        n_nodes: int,
        initial_cap_watts,
        mode: CapMode = CapMode.LONG,
        actuation_delay_s: float = 10 * MS,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("domain needs at least one node")
        if actuation_delay_s < 0:
            raise ValueError("negative actuation delay")
        initial = _valid_request(initial_cap_watts)
        self.node = node
        self.n_nodes = n_nodes
        self.mode = mode
        self.actuation_delay_s = actuation_delay_s
        if mode is CapMode.NONE:
            caps = np.full(n_nodes, node.tdp_watts, dtype=float)
            caps.flags.writeable = False
        else:
            caps = self._clamp(np.broadcast_to(initial, (n_nodes,)))
        self._caps = caps
        self._pending: Optional[tuple[float, np.ndarray]] = None
        #: monotone counter bumped whenever the installed caps change;
        #: anything derived from the effective caps (the phase
        #: executor's operating points) is valid for exactly one version
        self.caps_version = 0
        #: memo for cap-derived values, cleared on every caps change —
        #: the phase executor parks resolved operating points here so a
        #: piecewise-constant cap schedule costs one model inversion per
        #: (phase program or kind, cap segment) instead of one per query
        self.op_cache: dict = {}
        #: cached effective caps (undershoot applied), read-only so the
        #: shared array cannot be corrupted by callers
        self._effective = self._make_effective(caps)
        #: diagnostic: number of accepted cap requests
        self.requests = 0
        # cached: segment_at/_apply_pending sit inside the phase
        # executor's integration loop
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        faults = get_faults()
        self._faults = faults if faults.enabled else None

    # ------------------------------------------------------------------
    def _clamp(self, caps: np.ndarray) -> np.ndarray:
        """A new read-only array of ``caps`` clamped to the hardware
        range: installed and requested caps are shared, never copied."""
        # np.clip's float kernel is exactly min(max(x, lo), hi)
        clamped = np.minimum(
            np.maximum(caps, self.node.rapl_min_watts), self.node.tdp_watts
        )
        clamped.flags.writeable = False
        return clamped

    def _make_effective(self, caps: np.ndarray) -> np.ndarray:
        effective = caps * self.mode.undershoot
        effective.flags.writeable = False
        return effective

    def request_caps(
        self, caps_watts, now: float, fault_rank: int | None = None
    ) -> np.ndarray:
        """Request new per-node caps at time ``now``.

        The request must be finite and strictly positive — NaN or
        non-positive watts raise :class:`ValueError` rather than being
        silently clamped into the supported range (a controller emitting
        garbage is a bug, not a request). Valid caps are clamped and
        take effect at ``now + actuation_delay``. A second request
        before activation supersedes the first (RAPL registers hold one
        value). Returns the clamped caps that will be installed. In
        ``NONE`` mode the request is ignored.

        ``fault_rank`` identifies the requesting node to the fault
        injector for rank-targeted actuation faults; ``None`` matches
        domain-wide faults only.

        A one-node domain (the per-rank DES's) checks and clamps a
        scalar request in Python floats, bit for bit.
        """
        if self.n_nodes == 1 and isinstance(caps_watts, (float, int)):
            cap = float(caps_watts)
            if not (math.isfinite(cap) and cap > 0.0):
                _valid_request(cap)  # raises the array path's error
            if self.mode is CapMode.NONE:
                return self._caps
            # min(max(x, lo), hi) picks the same operand _clamp does
            node = self.node
            caps = np.array((min(max(cap, node.rapl_min_watts), node.tdp_watts),))
            caps.flags.writeable = False
        else:
            requested = _valid_request(caps_watts)
            if self.mode is CapMode.NONE:
                return self._caps
            if requested.shape != (self.n_nodes,):
                requested = np.broadcast_to(requested, (self.n_nodes,))
            caps = self._clamp(requested)
        delay_s = self.actuation_delay_s
        fault = (
            self._faults.actuation(now, fault_rank)
            if self._faults is not None
            else None
        )
        if fault is not None:
            if fault.dropped:
                # silently lost: registers keep their old value, but the
                # requester still believes the request landed
                return caps
            delay_s += fault.extra_delay_s
            if fault.offset_w:
                # miscalibrated actuation: installed != requested
                caps = self._clamp(caps + fault.offset_w)
        self._pending = (now + delay_s, caps)
        self.requests += 1
        if self._tracer is not None:
            self._tracer.instant(
                "power.rapl.request",
                cat="power",
                ts=now,
                mean_cap_w=float(caps.mean()),
                # magnitude of the requested move per node — how hard
                # the controller is steering
                cap_change_w=float(np.abs(caps - self._caps).mean()),
                n_nodes=self.n_nodes,
                effective_at=now + delay_s,
            )
        return caps

    # ------------------------------------------------------------------
    def _apply_pending(self, t: float) -> None:
        if self._pending is not None and t >= self._pending[0]:
            t_act, caps = self._pending
            if self.n_nodes == 1:
                unchanged = caps.item(0) == self._caps.item(0)
            else:
                unchanged = (caps == self._caps).all()
            self._caps = caps
            self._pending = None
            if not unchanged:
                # Re-requesting the caps already installed (steady-state
                # controllers do this every step) is a no-op for the
                # physics: keep the operating-point cache and effective
                # array alive instead of rebuilding them.
                self.caps_version += 1
                self.op_cache.clear()
                self._effective = self._make_effective(caps)
            if self._tracer is not None:
                # stamped at the actuation time, not the query time, so
                # the trace shows when RAPL actually switched registers
                self._tracer.instant(
                    "power.rapl.apply",
                    cat="power",
                    ts=t_act,
                    mean_cap_w=float(caps.mean()),
                    n_nodes=self.n_nodes,
                )

    def segment_at(self, t: float) -> tuple[np.ndarray, float]:
        """Enforced caps at time ``t`` and when they next change.

        Returns ``(effective_caps, t_next_change)`` where
        ``t_next_change`` is ``inf`` if no change is pending. The
        effective caps include the short-window undershoot and are a
        shared read-only array, recomputed only when the installed caps
        actually change (see :attr:`caps_version`).
        """
        self._apply_pending(t)
        if self._pending is not None:
            nxt = self._pending[0]
        else:
            nxt = np.inf
        return self._effective, nxt

    def effective_at(self, t: float) -> np.ndarray:
        """The effective caps :meth:`segment_at` gives for ``t``, read
        without applying a pending request."""
        pending = self._pending
        if pending is not None and t >= pending[0]:
            return self._make_effective(pending[1])
        return self._effective

    @property
    def requested_caps(self) -> np.ndarray:
        """Most recently *requested* caps (pending included) — what the
        controllers believe they allocated (Fig. 5 contrasts this with
        measured power). The array is shared and read-only."""
        if self._pending is not None:
            return self._pending[1]
        return self._caps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RaplDomainArray n={self.n_nodes} mode={self.mode.value} "
            f"caps~{float(np.mean(self._caps)):.1f}W>"
        )
