"""Tests for the statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    RunningMean,
    ewma,
    median,
    percent_improvement,
    quantiles,
    summarize,
    variability_pct,
)


def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_median_empty_raises():
    with pytest.raises(ValueError):
        median([])


def test_percent_improvement_convention():
    # managed faster than baseline -> positive (a speedup)
    assert percent_improvement(75.0, 100.0) == pytest.approx(25.0)
    # managed slower -> negative (the paper's "-25% slowdown")
    assert percent_improvement(125.0, 100.0) == pytest.approx(-25.0)
    with pytest.raises(ValueError):
        percent_improvement(1.0, 0.0)


def test_quantiles_match_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert quantiles(values, (0.0, 0.5, 1.0)) == [
        pytest.approx(v) for v in np.quantile(values, [0.0, 0.5, 1.0])
    ]


def test_quantiles_single_value():
    assert quantiles([7.0], (0.5, 0.99)) == [7.0, 7.0]


def test_quantiles_validation():
    with pytest.raises(ValueError):
        quantiles([], (0.5,))
    with pytest.raises(ValueError):
        quantiles([1.0], (1.5,))
    with pytest.raises(ValueError):
        quantiles([1.0], (-0.1,))


def test_variability_pct_definition():
    # spread 2 around median 100 -> 100*(102-98)/(2*100) = 2%
    assert variability_pct([98.0, 100.0, 102.0]) == pytest.approx(2.0)


def test_variability_identical_runs_zero():
    assert variability_pct([5.0, 5.0, 5.0]) == 0.0


def test_variability_single_value():
    assert variability_pct([5.0]) == 0.0


def test_variability_empty_raises():
    with pytest.raises(ValueError):
        variability_pct([])


def test_ewma_endpoints():
    assert ewma(10.0, 20.0, 1.0) == 20.0
    assert ewma(10.0, 20.0, 0.0) == 10.0
    assert ewma(10.0, 20.0, 0.5) == 15.0


def test_ewma_rejects_bad_weight():
    with pytest.raises(ValueError):
        ewma(1.0, 2.0, 1.5)


def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.median == pytest.approx(2.5)
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    with pytest.raises(ValueError):
        summarize([])


def test_running_mean_matches_numpy():
    rm = RunningMean()
    values = [3.0, 1.5, -2.0, 7.25]
    for v in values:
        rm.add(v)
    assert rm.mean == pytest.approx(np.mean(values))
    assert rm.count == 4


def test_running_mean_reset():
    rm = RunningMean()
    rm.add(5.0)
    rm.reset()
    assert rm.count == 0
    with pytest.raises(ValueError):
        _ = rm.mean


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_property_running_mean_equals_numpy(values):
    rm = RunningMean()
    for v in values:
        rm.add(v)
    assert rm.mean == pytest.approx(float(np.mean(values)), abs=1e-6)


@given(
    st.floats(1.0, 1e6),
    st.floats(1.0, 1e6),
    st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_property_ewma_between_endpoints(prev, obs, w):
    out = ewma(prev, obs, w)
    assert min(prev, obs) - 1e-9 <= out <= max(prev, obs) + 1e-9
