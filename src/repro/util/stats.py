"""Statistics helpers shared by the controllers and the experiment harness.

The paper reports medians of repeated runs, percentage improvements over
a static baseline, and run-to-run / job-to-job variability percentages
(Table I). The exact definitions used throughout this code base live
here so every table and figure is computed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RunningMean",
    "ewma",
    "median",
    "percent_change",
    "percent_improvement",
    "quantiles",
    "summarize",
    "variability_pct",
]


def median(values: Iterable[float]) -> float:
    """Median of a sequence (the paper's ``median of 3 runs``)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("median of empty sequence")
    return float(np.median(arr))


def percent_change(new: float, old: float, name: str | None = None) -> float:
    """Signed percent change from ``old`` to ``new``.

    Positive means ``new`` is larger. ``old`` must be nonzero; the
    error otherwise names the offending metric when ``name`` is given,
    so a failed comparison in a table of many metrics is attributable.
    """
    if old == 0:
        what = f"metric {name!r}" if name else "percent change"
        raise ValueError(f"{what}: change against zero reference")
    return 100.0 * (new - old) / old


def quantiles(values: Iterable[float], qs: Sequence[float]) -> list[float]:
    """Exact sample quantiles (linear interpolation, numpy convention).

    The exact answer the tests that pin the streaming histogram's
    resolution compare against.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("quantiles of empty sequence")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
    return [float(v) for v in np.quantile(arr, list(qs))]


def percent_improvement(managed_runtime: float, baseline_runtime: float) -> float:
    """Runtime improvement of a managed run over the static baseline.

    Matches the paper's convention: positive numbers are speedups
    (managed finished *faster* than the baseline), negative numbers are
    slowdowns. A 25 % *slowdown* therefore reads as ``-25``.
    """
    if baseline_runtime <= 0:
        raise ValueError("baseline runtime must be positive")
    return 100.0 * (baseline_runtime - managed_runtime) / baseline_runtime


def variability_pct(values: Sequence[float]) -> float:
    """Variability percentage as used in Table I.

    Defined as the half-spread of the observations around their median:
    ``100 * (max - min) / (2 * median)``. This matches the intuitive
    reading of "runs vary by X %" for small samples (the paper uses 7
    runs) and degrades gracefully to 0 for identical runs.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("variability of empty sequence")
    if arr.size == 1:
        return 0.0  # a single run cannot vary against itself
    med = float(np.median(arr))
    if med == 0:
        raise ValueError("variability undefined around zero median")
    return 100.0 * float(arr.max() - arr.min()) / (2.0 * med)


def ewma(previous: float, observation: float, weight: float) -> float:
    """Exponentially weighted moving average step.

    ``weight`` is the mass placed on the *new* observation:
    ``weight * observation + (1 - weight) * previous``. SeeSAw derives
    this weight from Eq. 3 of the paper.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"EWMA weight must be in [0, 1], got {weight}")
    return weight * observation + (1.0 - weight) * previous


@dataclass
class Summary:
    """Five-number-ish summary used by the report renderer."""

    n: int
    mean: float
    median: float
    minimum: float
    maximum: float
    std: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean:.4g} median={self.median:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g} std={self.std:.4g}"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Summary statistics over a sequence of observations."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("summarize of empty sequence")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


class RunningMean:
    """Numerically stable streaming mean (Welford) with a reset.

    Used by the measurement window: SeeSAw averages time and power over
    the last ``w`` synchronizations, then starts a fresh window.
    """

    __slots__ = ("_count", "_mean")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0

    def add(self, value: float) -> None:
        self._count += 1
        self._mean += (value - self._mean) / self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("mean of empty window")
        return self._mean

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
