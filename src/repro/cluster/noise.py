"""Run-to-run and job-to-job variability model.

HPC systems — Xeon Phi based Cray XC systems in particular — exhibit
measurable run-to-run variability (Chunduri et al., cited as [32] in
the paper), and the paper shows (Table I) that power capping makes it
worse, most of all when both RAPL windows are armed.

We model three statistically independent ingredients, each drawn from
its own :class:`~repro.util.rng.RngStream`:

* **job factors** — drawn once per job: a job-wide speed factor (the
  allocation ended up on a good/bad part of the machine, shared by all
  nodes) and per-node factors (individual slow nodes). These dominate
  *job-to-job* variability.
* **phase noise** — a fresh multiplicative lognormal factor per phase
  instance per node (OS interference). Dominates *run-to-run*
  variability. Its sigma grows with the cap mode.
* **sensor noise** — additive gaussian watts on power readings, feeding
  the power-aware controller's noise sensitivity (§VII-B1).

Sigma values per :class:`~repro.power.rapl.CapMode` are calibrated so
Table I's ordering and rough magnitudes reproduce: none < long <
long+short for run-to-run, and capping inflating job-to-job spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.power.rapl import CapMode
from repro.util.rng import RngStream

__all__ = ["NoiseConfig", "NoiseModel"]


@dataclass(frozen=True)
class NoiseConfig:
    """Sigmas of the lognormal/gaussian noise sources per cap mode."""

    #: per-phase multiplicative noise (log-sigma) keyed by cap mode
    phase_sigma: dict = field(
        default_factory=lambda: {
            CapMode.NONE: 0.004,
            CapMode.LONG: 0.005,
            CapMode.LONG_SHORT: 0.030,
        }
    )
    #: job-wide speed factor (log-sigma) keyed by cap mode
    job_sigma: dict = field(
        default_factory=lambda: {
            CapMode.NONE: 0.010,
            CapMode.LONG: 0.045,
            CapMode.LONG_SHORT: 0.045,
        }
    )
    #: per-run machine-state factor (log-sigma) keyed by cap mode —
    #: rerunning the *same* job minutes later sees different thermal /
    #: network conditions; Table I shows this run-to-run spread jumping
    #: an order of magnitude when both RAPL windows are armed
    run_sigma: dict = field(
        default_factory=lambda: {
            CapMode.NONE: 0.004,
            CapMode.LONG: 0.005,
            CapMode.LONG_SHORT: 0.035,
        }
    )
    #: per-node allocation factor (log-sigma), cap-independent
    node_sigma: float = 0.006
    #: additive power-sensor noise (W, gaussian sigma per reading)
    sensor_sigma_watts: float = 1.5
    #: probability that a node suffers an OS-interference burst during
    #: a phase (the "anomalies" SeeSAw's window w guards against, §IV)
    spike_prob: float = 0.015
    #: duration multiplier of a spiked phase
    spike_scale: float = 1.6

    def validate(self) -> None:
        for mode in CapMode:
            if (
                self.phase_sigma[mode] < 0
                or self.job_sigma[mode] < 0
                or self.run_sigma[mode] < 0
            ):
                raise ValueError("noise sigmas must be non-negative")
        if self.node_sigma < 0 or self.sensor_sigma_watts < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.spike_prob <= 1.0 or self.spike_scale < 1.0:
            raise ValueError("invalid spike parameters")


class NoiseModel:
    """Stateful noise source for one job.

    Construct one per job run; the constructor consumes the job-level
    draws so that two jobs with different seeds land on different parts
    of the "machine".
    """

    def __init__(
        self,
        rng: RngStream,
        n_nodes: int,
        mode: CapMode,
        config: NoiseConfig | None = None,
        job_factor: float | None = None,
        phase_rng: RngStream | None = None,
    ) -> None:
        """``job_factor`` overrides the job-wide speed draw — a job's
        two partitions share one allocation, so the proxy runner draws
        the factor once and passes it to both partitions' models (only
        per-node and per-phase noise stays partition-local).

        ``phase_rng`` decouples the transient (per-run) noise from the
        job identity: Table I's *run-to-run* variability repeats a job
        (same allocation → same job/node factors) with fresh phase
        noise, while *job-to-job* redraws everything.
        """
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        self.config = config if config is not None else NoiseConfig()
        self.config.validate()
        self.mode = mode
        self._phase_rng = (
            phase_rng if phase_rng is not None else rng.child("phase")
        )
        self._sensor_rng = rng.child("sensor")
        job_rng = rng.child("job")
        drawn = float(job_rng.lognormal(0.0, self.config.job_sigma[mode]))
        self.job_factor = drawn if job_factor is None else float(job_factor)
        self.node_factors = job_rng.lognormal(
            0.0, self.config.node_sigma, size=n_nodes
        )
        # The per-run machine-state factor derives from the *run's*
        # stream: same job, fresh run -> fresh factor (Table I).
        self.run_factor = float(
            self._phase_rng.lognormal(0.0, self.config.run_sigma[mode])
        )
        self.n_nodes = n_nodes
        # the fixed part of every phase's factor, in the order the
        # product was always evaluated (left to right)
        self._base = self.job_factor * self.run_factor * self.node_factors
        # phase_factor_pair runs once per phase per partition: bind its
        # constants and the phase generator's draws once
        self._phase_sigma = self.config.phase_sigma[mode]
        self._spike_prob = self.config.spike_prob
        self._spike_scale = self.config.spike_scale
        phase_gen = self._phase_rng.generator
        self._lognormal = phase_gen.lognormal
        # random() is uniform(0, 1) without its argument handling:
        # uniform computes 0 + 1 * next_double from the same stream word
        self._random = phase_gen.random
        self._integers = phase_gen.integers

    @classmethod
    def draw_job_factor(
        cls, rng: RngStream, mode: CapMode, config: NoiseConfig | None = None
    ) -> float:
        """One job-wide speed factor (to share across partitions)."""
        cfg = config if config is not None else NoiseConfig()
        return float(rng.lognormal(0.0, cfg.job_sigma[mode]))

    def phase_factors(self) -> np.ndarray:
        """Per-node multiplicative duration factors for one phase.

        Shorthand for the spiked element of :meth:`phase_factor_pair`.
        """
        spiked, _ = self.phase_factor_pair()
        return spiked

    def phase_factor_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """``(spiked, clean)`` per-node duration factors for one phase.

        Both include the job-wide, per-node and per-phase lognormal
        factors; ``spiked`` additionally carries rare OS-interference
        bursts hitting one rank of one node. The distinction models
        measurement granularity: the *slowest-rank* time (what actually
        gates the partition, and what PoLiMER's instrumented
        measurement reports to SeeSAw) includes the burst, while a
        node's *median-of-ranks* time — the robust statistic GEOPM's
        balancer uses — filters it out. This is precisely why SeeSAw
        with w=1 can over-react to anomalies (§VII-C1) while the
        time-aware scheme is blind to them.

        Without a burst, ``spiked`` and ``clean`` are one array object;
        :func:`repro.power.execution.execute_program` relies on that
        identity to skip the clean-time algebra.
        """
        phase = self._lognormal(0.0, self._phase_sigma, size=self.n_nodes)
        clean = self._base * phase
        spiked = clean
        if self._spike_prob > 0 and self._random() < self._spike_prob:
            # One interference burst hits one node of the partition —
            # rare at the *partition* level so it reads as an anomaly,
            # not a bias (a per-node-independent draw would fire nearly
            # every phase at 512 nodes).
            victim = int(self._integers(0, self.n_nodes))
            spiked = clean.copy()
            spiked[victim] *= self._spike_scale
        return spiked, clean

    def sensor_noise(self, size=None) -> np.ndarray | float:
        """Additive watts to corrupt a power reading with."""
        return self._sensor_rng.normal(
            0.0, self.config.sensor_sigma_watts, size=size
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<NoiseModel n={self.n_nodes} mode={self.mode.value} "
            f"job_factor={self.job_factor:.4f}>"
        )
