"""Streaming-histogram tests: the ±1-bucket quantile resolution
contract, merging, and edge handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import StreamingHistogram
from repro.util.stats import quantiles as exact_quantiles


def test_empty_histogram_raises():
    h = StreamingHistogram()
    assert h.count == 0
    with pytest.raises(ValueError):
        h.mean
    with pytest.raises(ValueError):
        h.quantile(0.5)
    assert h.to_json() == {"count": 0}


def test_rejects_invalid_values():
    h = StreamingHistogram()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            h.observe(bad)


@pytest.mark.parametrize("value", [1e300, 1.7976931348623157e308])
def test_values_whose_ratio_to_v0_overflows_are_bucketed(value):
    # value / v0 is inf here (v0 = 1e-9); the bucket index comes from
    # log(value) - log(v0) instead, and no state changes before it
    h = StreamingHistogram()
    assert value / h.v0 == math.inf
    h.observe(value)
    assert (h.count, h.total, h.minimum, h.maximum) == (1, value, value, value)
    (idx, n), = h._buckets.items()
    assert n == 1 and h._underflow == 0
    lo, hi = h.bucket_bounds(idx)
    assert lo <= value < hi
    assert h.quantile(0.5) == value
    assert h.to_json()["count"] == 1
    assert h.cumulative_buckets()[-1][1] == 1


def test_bucket_index_unchanged_below_ratio_overflow():
    # the largest values whose ratio to v0 is finite keep the
    # log(value / v0) index; the fallback starts right after them
    h = StreamingHistogram()
    below = 1.7e299
    h.observe(below)
    want = math.floor(math.log(below / h.v0) / math.log(h.growth))
    assert list(h._buckets) == [want]


def test_zero_and_subthreshold_values_underflow_to_zero():
    h = StreamingHistogram(v0=1e-9)
    h.observe(0.0)
    h.observe(1e-12)
    assert h.count == 2
    assert h.quantile(0.5) == 0.0
    assert h.minimum == 0.0


def test_mean_min_max_are_exact():
    h = StreamingHistogram()
    values = [0.5, 1.0, 2.0, 4.0]
    for v in values:
        h.observe(v)
    assert h.mean == pytest.approx(np.mean(values))
    assert h.minimum == 0.5
    assert h.maximum == 4.0
    assert h.total == pytest.approx(sum(values))


def test_bucket_bounds_contain_observation():
    h = StreamingHistogram()
    h.observe(3.7)
    (idx,) = h._buckets
    lo, hi = h.bucket_bounds(idx)
    assert lo <= 3.7 < hi


def test_merge_equals_observing_everything():
    a, b = StreamingHistogram(), StreamingHistogram()
    both = StreamingHistogram()
    rng = np.random.default_rng(0)
    for v in rng.lognormal(0, 1, 200):
        a.observe(v)
        both.observe(v)
    for v in rng.lognormal(2, 0.5, 200):
        b.observe(v)
        both.observe(v)
    a.merge(b)
    assert a.count == both.count
    assert a.total == pytest.approx(both.total)
    assert a._buckets == both._buckets
    assert a.quantile(0.9) == both.quantile(0.9)


def test_merge_rejects_different_bucketing():
    a = StreamingHistogram(growth=1.1)
    b = StreamingHistogram(growth=1.5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_cumulative_buckets_are_monotone_and_complete():
    h = StreamingHistogram()
    h.observe(0.0)  # underflow row
    for v in (1.0, 2.0, 2.0, 50.0):
        h.observe(v)
    rows = h.cumulative_buckets()
    les = [le for le, _ in rows]
    cums = [c for _, c in rows]
    assert les == sorted(les)
    assert cums == sorted(cums)
    assert cums[-1] == h.count


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6),
        min_size=1,
        max_size=300,
    ),
    st.sampled_from([0.5, 0.9, 0.99]),
)
@settings(max_examples=120, deadline=None)
def test_quantiles_within_one_bucket_of_exact(values, q):
    """The acceptance contract: streaming p50/p99 land within one
    log-bucket of the exact sample quantile. The exact (interpolated)
    quantile lies between the two order statistics bracketing rank
    q*(n-1); a sketch that stores no samples can only name a bucket, so
    the contract is one bucket around that bracket — which contains the
    numpy interpolated value."""
    h = StreamingHistogram(growth=1.1)
    for v in values:
        h.observe(v)
    estimate = h.quantile(q)
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = ordered[math.floor(rank)]
    hi = ordered[math.ceil(rank)]
    (exact,) = exact_quantiles(values, (q,))
    assert lo <= exact <= hi  # numpy interpolates within the bracket
    # midpoint estimate: allow 1.5 bucket widths of ratio error
    tolerance = h.growth**1.5
    assert lo / tolerance <= estimate <= hi * tolerance


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1))
@settings(max_examples=60, deadline=None)
def test_quantiles_clamped_to_observed_range(values):
    h = StreamingHistogram()
    for v in values:
        h.observe(v)
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert h.minimum <= h.quantile(q) <= h.maximum
