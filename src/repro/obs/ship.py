"""Worker-side telemetry shipping: the bounded buffer behind the pipe.

A pool worker executes cells with a :class:`ShippingSink`-backed tracer
installed, so every span and instant the cell's DES run emits lands
in an in-memory buffer instead of dying with the process. When the cell
finishes, the worker drains the buffer and attaches the batch to the
result frame it was going to send anyway — shipping adds **zero extra
pipe messages** and can never stall scheduling, because the only send
is the one the scheduler is already waiting on.

Backpressure is an all-or-nothing drop: the buffer is bounded, and a
cell chatty enough to overflow it ships *no* records, only the drop
count. Partial shipment is worse than none — dropping an arbitrary
suffix leaves unbalanced ``B``/``E`` spans that would poison the merged
trace's :func:`~repro.telemetry.summary.validate_spans` pass, whereas
an empty batch with a drop counter keeps the merged stream structurally
valid and makes the loss visible (``obs.ship.dropped``).

Shipping is consumer-driven: the parent flags each dispatched chunk
with whether anyone will read worker records (an enabled ambient
tracer or a file-backed journal). Unflagged chunks run with the null
tracer and ship nothing; results are bit-identical either way.
"""

from __future__ import annotations

from repro.telemetry.sinks import Sink

__all__ = ["ShippingSink"]

#: default per-cell record budget (~10 MB of small dicts at the limit)
DEFAULT_CAPACITY = 50_000


class ShippingSink(Sink):
    """Bounded in-memory sink drained once per executed cell.

    ``emit`` appends until ``capacity`` is reached, then counts drops;
    :meth:`drain` returns the batch dict the worker piggybacks on its
    result frame and resets the buffer for the next cell.
    """

    def __init__(self, wid: int = -1, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.wid = wid
        self.capacity = capacity
        self.records: list[dict] = []
        self.dropped = 0

    def emit(self, record: dict) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.dropped += 1

    def drain(self) -> dict | None:
        """The shipped batch for the cell just executed (None if silent).

        An overflowed cell ships an empty record list — never a
        truncated one — plus the total number of records it produced,
        so the parent can account the loss without risking an
        unbalanced span stream.
        """
        records, self.records = self.records, []
        dropped, self.dropped = self.dropped, 0
        if not records and not dropped:
            return None
        if dropped:
            dropped += len(records)
            records = []
        return {"wid": self.wid, "records": records, "dropped": dropped}
