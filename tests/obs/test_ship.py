"""Worker-side shipping sink: bounded buffer, drain, drop policy."""

import pytest

from repro.obs.ship import ShippingSink


def _rec(i):
    return {"ph": "i", "name": f"e{i}", "ts": float(i), "pid": 0, "tid": 0}


def test_drain_returns_batch_and_resets():
    sink = ShippingSink(wid=3)
    for i in range(5):
        sink.emit(_rec(i))
    batch = sink.drain()
    assert batch == {
        "wid": 3,
        "records": [_rec(i) for i in range(5)],
        "dropped": 0,
    }
    # drained: the next cell starts from an empty buffer
    assert sink.drain() is None


def test_silent_cell_ships_nothing():
    assert ShippingSink(wid=0).drain() is None


def test_overflow_ships_no_records_only_the_drop_count():
    """All-or-nothing: a truncated batch would leave unbalanced B/E
    spans in the merged trace, so an overflowed cell ships zero records
    plus the total number it produced."""
    sink = ShippingSink(wid=1, capacity=10)
    for i in range(25):
        sink.emit(_rec(i))
    batch = sink.drain()
    assert batch["records"] == []
    assert batch["dropped"] == 25  # 10 buffered + 15 dropped, all counted
    # and the sink is reusable afterwards
    sink.emit(_rec(99))
    assert sink.drain()["records"] == [_rec(99)]


def test_capacity_validated():
    with pytest.raises(ValueError):
        ShippingSink(capacity=0)
