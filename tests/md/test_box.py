"""Tests for the periodic box, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.md.box import Box


def test_cubic_box():
    box = Box.cubic(10.0)
    assert np.allclose(box.lengths, 10.0)
    assert box.volume == pytest.approx(1000.0)


def test_invalid_boxes():
    with pytest.raises(ValueError):
        Box(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Box(np.array([1.0, -1.0, 1.0]))


def test_wrap_into_box():
    box = Box.cubic(5.0)
    wrapped = box.wrap(np.array([[6.0, -1.0, 2.5]]))
    assert np.allclose(wrapped, [[1.0, 4.0, 2.5]])


def test_minimum_image_halves():
    box = Box.cubic(10.0)
    dr = box.minimum_image(np.array([[6.0, -6.0, 4.0]]))
    assert np.allclose(dr, [[-4.0, 4.0, 4.0]])


def test_distance_across_boundary():
    box = Box.cubic(10.0)
    d = box.distance(np.array([[0.5, 0.0, 0.0]]), np.array([[9.5, 0.0, 0.0]]))
    assert d[0] == pytest.approx(1.0)


coords = arrays(
    np.float64,
    (5, 3),
    elements=st.floats(-50.0, 50.0, allow_nan=False),
)


@given(coords)
@settings(max_examples=50, deadline=None)
def test_wrap_is_idempotent_and_in_range(pts):
    box = Box.cubic(7.3)
    w = box.wrap(pts)
    assert np.all(w >= 0.0)
    assert np.all(w < 7.3 + 1e-9)
    assert np.allclose(box.wrap(w), w)


@given(coords)
@settings(max_examples=50, deadline=None)
def test_minimum_image_bounded_by_half_box(pts):
    box = Box.cubic(7.3)
    mi = box.minimum_image(pts)
    assert np.all(np.abs(mi) <= 7.3 / 2 + 1e-9)


@given(coords, coords)
@settings(max_examples=50, deadline=None)
def test_distance_symmetric_and_wrap_invariant(a, b):
    box = Box.cubic(7.3)
    d_ab = box.distance(a, b)
    d_ba = box.distance(b, a)
    assert np.allclose(d_ab, d_ba)
    # Distances are invariant under wrapping of either argument.
    assert np.allclose(box.distance(box.wrap(a), b), d_ab, atol=1e-8)
