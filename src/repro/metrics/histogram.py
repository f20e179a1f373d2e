"""Log-bucketed streaming histogram: quantiles without samples.

The metrics layer needs percentile views of quantities that occur
thousands of times per run (sync waits, phase durations, power slack)
across arbitrarily many runs. Storing samples is out of the question at
campaign scale, so values land in geometrically spaced buckets:

    bucket(v) = floor(log(v / v0) / log(growth))

With the default ``growth = 1.1`` every bucket spans a 10 % value
range — ~24 buckets per decade — so any quantile estimate is within one
bucket (±10 %) of the exact sample quantile, which is the resolution
contract the property tests pin (DESIGN.md §10). Buckets are held in a
dict keyed by integer index: a histogram covering nanoseconds to hours
costs a few hundred ints, and merging two histograms is a dict add.

Values below ``v0`` (including zero — zero-width spans are legal) are
collected in a dedicated underflow bucket reported as 0. Negative
values are invalid: every metered quantity in this code base (seconds,
joules, watts of |slack|) is non-negative by construction.
"""

from __future__ import annotations

import math

__all__ = ["StreamingHistogram"]

_INF = math.inf
_log = math.log
_floor = math.floor


class StreamingHistogram:
    """Fixed-growth log-bucket histogram with O(1) observe."""

    __slots__ = (
        "growth",
        "v0",
        "_log_growth",
        "_buckets",
        "_underflow",
        "count",
        "total",
        "_min",
        "_max",
    )

    def __init__(self, growth: float = 1.1, v0: float = 1e-9) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        if v0 <= 0.0:
            raise ValueError("v0 must be positive")
        self.growth = growth
        self.v0 = v0
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if not 0.0 <= value < _INF:  # rejects negatives, NaN and inf
            raise ValueError(f"histogram values must be finite and >= 0, got {value}")
        idx = None
        if value >= self.v0:
            ratio = value / self.v0
            # near the float maximum value / v0 overflows; its log does not
            log_ratio = (
                _log(ratio) if ratio != _INF else _log(value) - _log(self.v0)
            )
            idx = _floor(log_ratio / self._log_growth)
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if idx is None:
            self._underflow += 1
        else:
            buckets = self._buckets
            buckets[idx] = buckets.get(idx, 0) + 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` (same growth/v0) into this histogram."""
        if (other.growth, other.v0) != (self.growth, self.v0):
            raise ValueError("cannot merge histograms with different bucketing")
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self._underflow += other._underflow
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of empty histogram")
        return self.total / self.count

    @property
    def minimum(self) -> float:
        if self.count == 0:
            raise ValueError("min of empty histogram")
        return self._min

    @property
    def maximum(self) -> float:
        if self.count == 0:
            raise ValueError("max of empty histogram")
        return self._max

    def bucket_bounds(self, idx: int) -> tuple[float, float]:
        """The value interval ``[lo, hi)`` covered by bucket ``idx``."""
        return self._edge(idx), self._edge(idx + 1)

    def _edge(self, idx: int) -> float:
        """``v0 * growth**idx``; past the float range of ``growth**idx``
        (the top buckets of values near the float maximum) the same
        edge from logarithms, and ``inf`` beyond the largest float."""
        try:
            return self.v0 * self.growth**idx
        except OverflowError:
            try:
                return math.exp(math.log(self.v0) + idx * self._log_growth)
            except OverflowError:
                return math.inf

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the geometric midpoint of the bucket holding the
        quantile rank, clamped to the observed [min, max] so estimates
        never stray outside the data range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of empty histogram")
        rank = q * (self.count - 1)
        seen = self._underflow
        if rank < seen:
            return 0.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank < seen:
                lo, hi = self.bucket_bounds(idx)
                return min(max(math.sqrt(lo * hi), self._min), self._max)
        return self._max

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.9, 0.99)) -> list[float]:
        return [self.quantile(q) for q in qs]

    # ------------------------------------------------------------------
    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le_upper_bound, cumulative_count)`` rows.

        The underflow bucket surfaces as ``le = v0``; an implicit
        ``le = +Inf`` row equal to :attr:`count` is the exporter's job.
        """
        rows: list[tuple[float, int]] = []
        cum = self._underflow
        if self._underflow:
            rows.append((self.v0, cum))
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            rows.append((self.bucket_bounds(idx)[1], cum))
        return rows

    def to_json(self) -> dict:
        """Summary statistics (not the raw buckets) for report export."""
        if self.count == 0:
            return {"count": 0}
        p50, p90, p99 = self.quantiles((0.5, 0.9, 0.99))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            return "<StreamingHistogram empty>"
        return (
            f"<StreamingHistogram n={self.count} mean={self.mean:.4g} "
            f"p50={self.quantile(0.5):.4g} p99={self.quantile(0.99):.4g}>"
        )
