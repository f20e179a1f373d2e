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
from collections import Counter
from functools import reduce
from operator import add

__all__ = ["StreamingHistogram", "observable"]

#: lower edge of bucket 0 unless a histogram is built with another;
#: :class:`~repro.metrics.registry.MetricRegistry` keeps the default
V0 = 1e-9


def observable(values: list, v0: float = V0) -> bool:
    """True only if :meth:`StreamingHistogram.observe` records every
    one of ``values`` (floats) without raising: each is finite and
    >= 0, and none is so large that ``value / v0`` overflows its bucket
    index. A sum that overflows also answers False (``observe`` takes
    those values; checking the sum rather than each value keeps the
    check to three C-level passes)."""
    return (
        math.isfinite(sum(values))
        and min(values) >= 0.0
        and math.isfinite(max(values) / v0)
    )


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

    def __init__(self, growth: float = 1.1, v0: float = V0) -> None:
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
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(f"histogram values must be finite and >= 0, got {value}")
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value < self.v0:
            self._underflow += 1
            return
        idx = int(math.floor(math.log(value / self.v0) / self._log_growth))
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def observe_many(self, values) -> None:
        """Record ``values`` in order: the state an :meth:`observe`
        loop leaves, folded with one pass per statistic.

        ``total`` is the same left-to-right float sum and each bucket
        index the same ``math.log`` expression. A batch holding a value
        :meth:`observe` refuses (see :func:`observable`) goes through
        the :meth:`observe` loop, so the values before the offending
        one are recorded and the same error is raised.
        """
        values = list(values)
        try:
            vals = list(map(float, values))
        except (TypeError, ValueError, OverflowError):
            vals = None
        if not vals or not observable(vals, self.v0):
            for value in values:
                self.observe(value)
            return
        v0, lg = self.v0, self._log_growth
        self.count += len(vals)
        self.total = reduce(add, vals, self.total)
        lo, hi = min(vals), max(vals)
        self._min = min(self._min, lo)
        self._max = max(self._max, hi)
        above = vals if lo >= v0 else [v for v in vals if not v < v0]
        self._underflow += len(vals) - len(above)
        buckets = self._buckets
        for idx, n in Counter(
            math.floor(math.log(v / v0) / lg) for v in above
        ).items():
            buckets[idx] = buckets.get(idx, 0) + n

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
        return self.v0 * self.growth**idx, self.v0 * self.growth ** (idx + 1)

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
