"""Power traces: piecewise-constant draw records and sampling.

The paper's Figure 1 is a 200 ms-sampled power trace of simulation and
analysis processes; Figures 4, 5 and 7 plot per-synchronization
allocated vs measured power. Both views are derived from the same
underlying record: a sequence of ``(t0, t1, watts)`` segments per
traced entity (typically "mean node of partition X").
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PowerTrace", "sample_trace"]


@dataclass
class PowerTrace:
    """Piecewise-constant power draw of one traced entity.

    Segments must be appended in non-decreasing time order; gaps are
    treated as zero draw (the entity did not exist / was not traced).
    """

    name: str = "trace"
    _t0: list = field(default_factory=list)
    _t1: list = field(default_factory=list)
    _watts: list = field(default_factory=list)

    def add(self, t0: float, t1: float, watts: float) -> None:
        """Append one segment. Zero-length segments are dropped."""
        if t1 < t0:
            raise ValueError(f"segment ends before it starts: [{t0}, {t1})")
        # a start a few ulps before the previous end is rounding, not
        # disorder: at a proxy clock of ~16,400 s one ulp is 3.6e-12
        if self._t0 and t0 < self._t1[-1] - max(
            1e-12, 4 * math.ulp(self._t1[-1])
        ):
            raise ValueError(
                f"segments must be time-ordered: {t0} < {self._t1[-1]}"
            )
        if t1 == t0:
            return
        # Merge with previous segment when draw is identical — keeps
        # long steady-state runs compact.
        if (
            self._t0
            and self._watts[-1] == watts
            and abs(self._t1[-1] - t0) < 1e-12
        ):
            self._t1[-1] = t1
            return
        self._t0.append(t0)
        self._t1.append(t1)
        self._watts.append(watts)

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self._t0

    @property
    def span(self) -> tuple[float, float]:
        if self.empty:
            raise ValueError("empty trace has no span")
        return self._t0[0], self._t1[-1]

    def power_at(self, t: float) -> float:
        """Instantaneous draw at time ``t`` (0 outside any segment)."""
        i = bisect_right(self._t0, t) - 1
        if i < 0:
            return 0.0
        return self._watts[i] if t < self._t1[i] else 0.0

    def mean_power(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-averaged draw over [t0, t1] (defaults to full span)."""
        lo, hi = self.span
        t0 = lo if t0 is None else t0
        t1 = hi if t1 is None else t1
        if t1 <= t0:
            raise ValueError("empty averaging window")
        return self.energy(t0, t1) / (t1 - t0)

    def energy(self, t0: float | None = None, t1: float | None = None) -> float:
        """Joules drawn over [t0, t1] (defaults to full span)."""
        if self.empty:
            return 0.0
        lo, hi = self.span
        t0 = lo if t0 is None else t0
        t1 = hi if t1 is None else t1
        total = 0.0
        for s0, s1, w in zip(self._t0, self._t1, self._watts):
            overlap = min(s1, t1) - max(s0, t0)
            if overlap > 0:
                total += overlap * w
        return total

    def segments(self) -> list[tuple[float, float, float]]:
        return list(zip(self._t0, self._t1, self._watts))

    def __len__(self) -> int:
        return len(self._t0)


def sample_trace(
    trace: PowerTrace,
    period_s: float,
    t0: float | None = None,
    t1: float | None = None,
    noise=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a trace at fixed period, Fig.-1 style.

    Each sample reports the *mean* power over the preceding period
    (what an energy-counter-difference measurement yields, which is how
    RAPL-based monitors like PoLiMER read power). Optional ``noise`` is
    a callable ``noise(size) -> ndarray`` of additive watt errors.
    """
    if period_s <= 0:
        raise ValueError("period must be positive")
    lo, hi = trace.span
    t0 = lo if t0 is None else t0
    t1 = hi if t1 is None else t1
    edges = np.arange(t0, t1 + period_s * 0.5, period_s)
    if len(edges) < 2:
        raise ValueError("window shorter than one period")
    means = np.array(
        [
            trace.energy(a, b) / (b - a)
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    if noise is not None:
        means = means + noise(means.size)
    return edges[1:], means
