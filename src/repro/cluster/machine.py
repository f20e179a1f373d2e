"""Machine description: nodes + interconnect + RAPL characteristics.

:func:`theta` builds the evaluation platform of the paper — the Cray
XC40 *Theta* at Argonne: 4392 single-socket KNL 7230 nodes, per-node
RAPL power domains (98–215 W), 10 ms cap actuation, Aries dragonfly
interconnect. All experiment harnesses take a :class:`MachineSpec` so
alternative machines can be explored (the ablation benches use this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.interconnect import Interconnect, InterconnectSpec
from repro.cluster.node import THETA_NODE, NodeSpec
from repro.util.units import MS

__all__ = ["MachineSpec", "theta", "xeon_cluster"]


@dataclass(frozen=True)
class MachineSpec:
    """A named machine with its hardware envelope."""

    name: str
    node: NodeSpec
    interconnect_spec: InterconnectSpec
    total_nodes: int
    #: RAPL cap actuation latency (10 ms on Theta — paper §VII-E)
    rapl_actuation_s: float = 10 * MS
    #: default power-sampling period for traces (200 ms in Fig. 1)
    sensor_period_s: float = 0.2

    def __post_init__(self) -> None:
        if self.total_nodes <= 0:
            raise ValueError("machine needs nodes")
        if self.rapl_actuation_s < 0 or self.sensor_period_s <= 0:
            raise ValueError("invalid latencies")

    def interconnect(self) -> Interconnect:
        """Fresh interconnect model instance for this machine."""
        return Interconnect(self.interconnect_spec)

    def validate_job(self, n_nodes: int) -> None:
        """Check a job fits on the machine."""
        if n_nodes <= 0:
            raise ValueError("job needs at least one node")
        if n_nodes > self.total_nodes:
            raise ValueError(
                f"job wants {n_nodes} nodes; {self.name} has {self.total_nodes}"
            )


def theta() -> MachineSpec:
    """The Theta supercomputer as described in paper §VI-A."""
    return MachineSpec(
        name="theta",
        node=THETA_NODE,
        interconnect_spec=InterconnectSpec(),
        total_nodes=4392,
    )


def xeon_cluster() -> MachineSpec:
    """A generic dual-purpose Xeon cluster (generalization target).

    Nothing in the controllers or the workload layer is KNL-specific —
    they consume a :class:`NodeSpec` envelope and per-phase curves that
    reference the node's floor and clock ratios. This machine has a
    very different envelope (higher clocks, lower TDP, faster fabric,
    lower idle) and is used by the generalization benchmarks to check
    the paper's qualitative results are not artifacts of Theta's
    numbers.
    """
    return MachineSpec(
        name="xeon-cluster",
        node=NodeSpec(
            f_base=2.4,
            f_turbo=3.2,
            f_min=1.0,
            tdp_watts=165.0,
            rapl_min_watts=70.0,
            p_floor_watts=45.0,
            p_wait_watts=78.0,
            cores=48,
        ),
        interconnect_spec=InterconnectSpec(
            latency_s=0.9e-6,
            bandwidth_Bps=25e9,
            per_rank_software_s=30e-9,
            congestion_per_doubling=0.05,
        ),
        total_nodes=1024,
        rapl_actuation_s=0.002,  # modern RAPL reacts faster
        sensor_period_s=0.1,
    )
