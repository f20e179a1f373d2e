"""request_caps input validation: reject NaN/non-positive cap vectors."""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.power.rapl import CapMode, RaplDomainArray


def make_domain(n=4, mode=CapMode.LONG):
    return RaplDomainArray(THETA_NODE, n, 110.0, mode=mode)


@pytest.mark.parametrize(
    "bad",
    [
        [110.0, float("nan"), 110.0, 110.0],
        [110.0, -5.0, 110.0, 110.0],
        [110.0, 0.0, 110.0, 110.0],
        [110.0, float("inf"), 110.0, 110.0],
        float("nan"),
        -1.0,
    ],
    ids=["nan", "negative", "zero", "inf", "scalar-nan", "scalar-negative"],
)
def test_invalid_caps_raise(bad):
    dom = make_domain()
    with pytest.raises(ValueError):
        dom.request_caps(bad, now=1.0)


def test_empty_vector_raises():
    dom = make_domain()
    with pytest.raises(ValueError):
        dom.request_caps(np.zeros(0), now=1.0)


def test_invalid_caps_rejected_even_in_none_mode():
    # validation precedes the NONE-mode early return: a controller bug
    # must not hide behind an uncapped domain
    dom = make_domain(mode=CapMode.NONE)
    with pytest.raises(ValueError):
        dom.request_caps([float("nan")] * 4, now=1.0)


def test_invalid_request_leaves_state_untouched():
    dom = make_domain()
    before, _ = dom.segment_at(0.0)
    with pytest.raises(ValueError):
        dom.request_caps([110.0, -5.0, 110.0, 110.0], now=1.0)
    after, nxt = dom.segment_at(5.0)
    assert np.array_equal(before, after)
    assert nxt == np.inf  # no pending install was queued


def test_valid_out_of_range_caps_still_clamp_not_raise():
    # hardware clamping (not validation) handles merely out-of-range
    # finite positive values
    dom = make_domain()
    dom.request_caps([50.0, 400.0, 110.0, 110.0], now=1.0)
    caps, _ = dom.segment_at(2.0)
    assert caps[0] == THETA_NODE.rapl_min_watts
    assert caps[1] == THETA_NODE.tdp_watts


@pytest.mark.parametrize("mode", list(CapMode))
@pytest.mark.parametrize(
    "bad",
    [
        float("nan"),
        0.0,
        -1.0,
        float("inf"),
        [110.0, float("nan"), 110.0, 110.0],
        [110.0, 0.0, 110.0, 110.0],
        np.zeros(0),
    ],
    ids=["nan", "zero", "negative", "inf", "vector-nan", "vector-zero", "empty"],
)
def test_invalid_initial_caps_raise_as_a_request_does(mode, bad):
    # an uncapped domain ignores its initial caps, but a NaN there is
    # still a caller's bug; the error is the request's, word for word
    with pytest.raises(ValueError) as init:
        RaplDomainArray(THETA_NODE, 4, bad, mode=mode)
    with pytest.raises(ValueError) as request:
        make_domain(mode=mode).request_caps(bad, now=1.0)
    assert str(init.value) == str(request.value)


@pytest.mark.parametrize("mode", list(CapMode))
@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), 0.0, -1.0, -3, np.float64("nan")]
)
def test_one_node_scalar_request_raises_the_array_error(mode, bad):
    # a one-node domain checks a scalar in floats; a wider one checks
    # the same scalar as an array before broadcasting it
    errors = []
    for n in (1, 4):
        dom = RaplDomainArray(THETA_NODE, n, 110.0, mode=mode)
        with pytest.raises(ValueError) as err:
            dom.request_caps(bad, now=1.0)
        errors.append(str(err.value))
        assert dom.segment_at(5.0)[1] == np.inf  # nothing was queued
    assert errors[0] == errors[1]
