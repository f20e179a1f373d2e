"""Pure helpers of the benchmark: the tail rule, spreads, digests,
failure accounting and self time from nested spans.

Nothing here imports the program under test, so the harness, the
measurement process and the helper tests share one definition of each
rule.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field

#: the tail is the highest percentile with at least this many samples
#: above it
TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest nearest-rank percentile
    that has at least ``beyond`` samples above it.

    The value is the sample at 0-based rank ``n - beyond - 1`` of the
    sorted samples; its nearest-rank percentile is ``100 * (n - beyond)
    / n``. Below ``2 * beyond`` samples that percentile would lie under
    the median, which is no tail, so the maximum is returned as
    ``p100`` and the caller prints that the tail is the worst sample.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 2 * beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median, the way
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def digest(*values) -> str:
    """Short stable digest of exact values (floats by ``repr``)."""
    text = "\n".join(
        repr(float(v)) if isinstance(v, float) else repr(v) for v in values
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcomes:
    """Operations attempted and failed, with a reason per failure.

    An operation is a cell, an in-situ call, or one whole-run check
    (a table digest, the artifact comparison, a trace validation).
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def self_times(names, starts, ends, parents) -> dict[str, list]:
    """Fold spans into ``{name: [calls, inclusive_s, self_s]}``.

    Span ``i`` runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is
    the index of the span that was open when it began (``-1`` for a
    root). A span's self time is its duration minus its direct
    children's durations, so the self times of all spans add up to the
    duration of the roots.
    """
    n = len(names)
    child_s = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_s[p] += ends[i] - starts[i]
    out: dict[str, list] = {}
    for i in range(n):
        dur = ends[i] - starts[i]
        row = out.setdefault(names[i], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s[i]
    return out
