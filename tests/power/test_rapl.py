"""Tests for the RAPL emulation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import THETA_NODE
from repro.power.rapl import CapMode, RaplDomainArray


def make_domain(n=4, cap=110.0, mode=CapMode.LONG, delay=0.010):
    return RaplDomainArray(
        THETA_NODE, n, cap, mode=mode, actuation_delay_s=delay
    )


def test_initial_caps_installed_immediately():
    dom = make_domain(cap=110.0)
    caps, nxt = dom.segment_at(0.0)
    assert np.allclose(caps, 110.0)
    assert nxt == np.inf


def test_caps_clamped_to_hardware_range():
    dom = make_domain(cap=50.0)
    caps, _ = dom.segment_at(0.0)
    assert np.allclose(caps, THETA_NODE.rapl_min_watts)
    dom2 = make_domain(cap=400.0)
    caps2, _ = dom2.segment_at(0.0)
    assert np.allclose(caps2, THETA_NODE.tdp_watts)


def test_request_takes_effect_after_actuation_delay():
    dom = make_domain(cap=110.0, delay=0.010)
    dom.request_caps(130.0, now=1.0)
    caps, nxt = dom.segment_at(1.005)
    assert np.allclose(caps, 110.0)  # still old caps
    assert nxt == pytest.approx(1.010)
    caps2, nxt2 = dom.segment_at(1.010)
    assert np.allclose(caps2, 130.0)
    assert nxt2 == np.inf


def test_effective_at_reads_without_applying():
    dom = make_domain(cap=110.0, mode=CapMode.LONG_SHORT, delay=0.010)
    dom.request_caps(130.0, now=1.0)
    version = dom.caps_version
    assert np.array_equal(dom.effective_at(1.005), dom.segment_at(1.0)[0])
    due = dom.effective_at(1.010)
    assert np.allclose(due, 130.0 * CapMode.LONG_SHORT.undershoot)
    # the read left the request pending
    assert dom.caps_version == version
    assert dom.segment_at(1.005)[1] == pytest.approx(1.010)
    assert np.array_equal(due, dom.segment_at(1.010)[0])


def test_second_request_supersedes_pending():
    dom = make_domain(cap=110.0, delay=0.010)
    dom.request_caps(130.0, now=1.0)
    dom.request_caps(140.0, now=1.002)
    caps, _ = dom.segment_at(1.012)
    assert np.allclose(caps, 140.0)


def test_per_node_caps():
    dom = make_domain(n=3, cap=110.0, delay=0.0)
    dom.request_caps(np.array([100.0, 120.0, 140.0]), now=0.0)
    caps, _ = dom.segment_at(0.0)
    assert np.allclose(caps, [100.0, 120.0, 140.0])


def test_none_mode_pins_tdp_and_ignores_requests():
    dom = make_domain(cap=110.0, mode=CapMode.NONE)
    caps, _ = dom.segment_at(0.0)
    assert np.allclose(caps, THETA_NODE.tdp_watts)
    dom.request_caps(100.0, now=0.0)
    caps2, _ = dom.segment_at(10.0)
    assert np.allclose(caps2, THETA_NODE.tdp_watts)
    assert dom.requests == 0


def test_long_short_mode_undershoots():
    dom = make_domain(cap=110.0, mode=CapMode.LONG_SHORT)
    caps, _ = dom.segment_at(0.0)
    assert np.allclose(caps, 110.0 * 0.985)


def test_requested_caps_reports_pending():
    dom = make_domain(cap=110.0, delay=0.010)
    dom.request_caps(125.0, now=0.0)
    assert np.allclose(dom.requested_caps, 125.0)
    # enforcement still at the old value
    caps, _ = dom.segment_at(0.0)
    assert np.allclose(caps, 110.0)


def test_request_returns_clamped_values():
    dom = make_domain(cap=110.0)
    out = dom.request_caps(50.0, now=0.0)
    assert np.allclose(out, THETA_NODE.rapl_min_watts)


def test_invalid_construction():
    with pytest.raises(ValueError):
        make_domain(n=0)
    with pytest.raises(ValueError):
        make_domain(delay=-1.0)


@given(
    mode=st.sampled_from(list(CapMode)),
    initial=st.floats(1.0, 400.0),
    # in and out of the 98 W - TDP range, repeats of the installed cap
    # included; each request is queried at its own time or later
    requests=st.lists(
        st.tuples(
            st.one_of(
                st.floats(1.0, 400.0),
                st.sampled_from([98.0, 215.0]),
                st.integers(1, 400),
            ),
            st.floats(0.0, 0.02),
        ),
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_one_node_scalar_request_matches_the_array_path(mode, initial, requests):
    # a one-node domain checks, clamps and compares a scalar cap in
    # floats; a two-node twin does it on arrays: node 0 stays equal
    one, twin = (make_domain(n=n, cap=initial, mode=mode) for n in (1, 2))
    t = 0.0
    for watts, wait in requests:
        out = one.request_caps(watts, now=t)
        ref = twin.request_caps(watts, now=t)
        assert out.shape == (1,) and not out.flags.writeable
        assert out.tobytes() == ref[:1].tobytes()
        t += wait
        for dom in (one, twin):
            dom.op_cache["probe"] = True
        caps, nxt = one.segment_at(t)
        ref_caps, ref_nxt = twin.segment_at(t)
        assert caps.tobytes() == ref_caps[:1].tobytes() and nxt == ref_nxt
        assert one.requested_caps.tobytes() == twin.requested_caps[:1].tobytes()
        # an unchanged cap keeps the cache; a changed one clears it
        assert one.op_cache == twin.op_cache
        assert one.caps_version == twin.caps_version
