"""Tests for unit helpers."""

from repro.util.units import MS


def test_constants():
    assert MS == 1e-3
