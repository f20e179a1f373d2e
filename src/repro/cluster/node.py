"""Node hardware model (Theta-like Xeon Phi 7230 compute node).

The evaluation platform in the paper is a Cray XC40 node with a
single-socket 64-core KNL: 1.3 GHz base, 1.5 GHz turbo, 215 W TDP and a
minimum RAPL cap of 98 W (paper §VI-A, §VII-D). The controllers never
see frequencies — only power caps in and (time, power) out — so the
node model's job is to translate a cap into an execution speed and a
power draw for each *phase kind* (see :mod:`repro.power.model`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NodeSpec", "THETA_NODE"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a compute node's power/performance envelope.

    Attributes
    ----------
    f_base, f_turbo, f_min:
        Clock range in GHz. ``f_base`` defines speed 1.0; the
        performance model works in ratios ``f / f_base``.
    tdp_watts:
        Thermal design power — the hardware maximum (δ_max in the
        paper's clamping rule).
    rapl_min_watts:
        Lowest cap RAPL will accept (δ_min; 98 W on Theta).
    p_floor_watts:
        Static/uncore power that is drawn regardless of activity and
        cannot be capped away. Caps below ``p_floor`` force duty-cycle
        throttling with severe slowdown.
    p_wait_watts:
        Draw while spin-waiting in MPI synchronization. Figure 1 of the
        paper shows the analysis partition idling near 105 W between
        synchronizations.
    cores:
        Core count; only used for rank placement bookkeeping.
    """

    f_base: float = 1.3
    f_turbo: float = 1.5
    f_min: float = 0.6
    tdp_watts: float = 215.0
    rapl_min_watts: float = 98.0
    p_floor_watts: float = 65.0
    p_wait_watts: float = 105.0
    cores: int = 64

    def __post_init__(self) -> None:
        if not (0 < self.f_min <= self.f_base <= self.f_turbo):
            raise ValueError(
                f"invalid frequency range {self.f_min}/{self.f_base}/{self.f_turbo}"
            )
        if not (0 < self.p_floor_watts < self.rapl_min_watts < self.tdp_watts):
            raise ValueError("power envelope must satisfy floor < min cap < TDP")
        if self.cores <= 0:
            raise ValueError("node needs at least one core")

    def clamp_cap(self, cap_watts: float) -> float:
        """Clamp a requested cap to what the hardware supports."""
        return min(max(cap_watts, self.rapl_min_watts), self.tdp_watts)


#: The node used throughout the reproduction (paper §VI-A).
THETA_NODE = NodeSpec()
