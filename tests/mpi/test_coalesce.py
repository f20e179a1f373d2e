"""Coalesced collective release: ordering and the pinned trajectory.

A finished collective wakes every member from ONE heap event, resuming
waiters inline in join order. That is the order the historical scheme
(one zero-delay wakeup event per rank) resumed them in, so the virtual
trajectory is the per-rank scheme's; only the executed-event count is
lower. The per-rank scheme is gone: the digests below were captured
while both schemes still ran and agreed, and now pin the trajectory.
"""

import hashlib

import pytest

from repro.des import Delay, Engine, SimulationError
from repro.mpi import LogPCost, MpiWorld


def _run(size, main, cost=None):
    eng = Engine()
    world = MpiWorld(eng, size, cost=cost)
    results = world.run(main)
    return eng, results


def _comm_for(split, rank, comm):
    """Generator yielding the communicator to test on and this rank's id
    in it: the world itself, or a same-membership split of it (so the
    release path of a derived communicator is covered too)."""
    if not split:
        return comm, rank
    sub = yield comm.split(rank, color=0, key=rank)
    return sub, sub.world_ranks.index(rank)


# ------------------------------------------------------------- wake order
@pytest.mark.parametrize("split", [False, True])
def test_release_order_is_join_order(split):
    """Members wake in the order they joined the round, regardless of
    rank id — exactly the order the per-rank zero-delay events fired."""
    woken = []

    def main(rank, comm):
        c, r = yield from _comm_for(split, rank, comm)
        # Reverse-staggered arrivals: rank 3 joins first, rank 0 last.
        yield Delay(float(c.size - 1 - r))
        yield c.barrier(r)
        woken.append(rank)

    _run(4, main)
    assert woken == [3, 2, 1, 0]


@pytest.mark.parametrize("split", [False, True])
def test_deliver_op_release_order_is_join_order(split):
    """Scatter wraps the shared event per rank (deliver op); the
    per-rank values and wake order must survive coalescing."""
    woken = []

    def main(rank, comm):
        c, r = yield from _comm_for(split, rank, comm)
        yield Delay(float(r % 2))  # ranks 0,2 join first, then 1,3
        values = [10, 11, 12, 13] if r == 0 else None
        got = yield c.scatter(r, values, root=0)
        woken.append((rank, got))

    _run(4, main)
    assert woken == [(0, 10), (2, 12), (1, 11), (3, 13)]


# ------------------------------------------------------ pinned trajectory
class _LinearCost:
    """Deterministic nonzero cost model local to this test: collective
    and point-to-point times scale with size and payload so release
    times land at distinct, representative floats."""

    def point_to_point_time(self, nbytes: int) -> float:
        return 1e-5 + nbytes * 1e-9

    def collective_time(self, op: str, size: int, nbytes: int) -> float:
        return (1e-4 + nbytes * 1e-9) * size


def _mixed_workload(trace):
    def main(rank, comm):
        yield Delay(0.01 * rank)
        total = yield comm.allreduce(rank, rank + 1)
        trace.append(("allreduce", rank, comm.engine.now, total))
        got = yield comm.bcast(rank, "seed" if rank == 2 else None, root=2)
        trace.append(("bcast", rank, comm.engine.now, got))
        part = yield comm.scatter(
            rank, [f"v{i}" for i in range(comm.size)] if rank == 0 else None,
            root=0,
        )
        trace.append(("scatter", rank, comm.engine.now, part))
        yield comm.barrier(rank)
        trace.append(("barrier", rank, comm.engine.now, None))
        return total

    return main


#: sha256 of ``repr((trace, results, engine.now))`` for
#: ``_mixed_workload`` on 4 ranks, captured when the coalesced and the
#: per-rank wakeup schemes both ran and produced identical trajectories
#: (the per-rank scheme fired 32 events where the coalesced one fires 12)
@pytest.mark.parametrize(
    "cost, digest",
    [
        (None, "c2f9da37ed1043c7854b24aef71e1f4df46a2ebbac3a11bf2d3eb7a9e4f97ad7"),
        (LogPCost(), "b0cab0e65ffdb707cf7a02cf6723e94780424f26cc1e5aec60ddb37cb088b562"),
        (_LinearCost(), "53f8219ae90bf4d80cdf60080280713a10ee55e3a70064d90da3977eca46093f"),
    ],
    ids=["None", "cost1", "cost2"],
)
def test_legacy_and_coalesced_trajectories_match(cost, digest):
    trace = []
    eng, results = _run(4, _mixed_workload(trace), cost=cost)
    got = hashlib.sha256(repr((trace, results, eng.now)).encode()).hexdigest()
    assert got == digest
    # The whole point: fewer heap events for the same trajectory.
    assert eng.events_executed == 12


def test_late_join_after_release_still_errors():
    """Joining a collective round twice is a structural error (guard
    unchanged by the coalesced release)."""

    def main(rank, comm):
        yield comm.barrier(rank)
        if rank == 0:
            ev = comm.barrier(rank)
            with pytest.raises(SimulationError):
                comm.barrier(rank)  # double-join the open round
            comm.barrier(1 - rank)  # let the round finish
            yield ev

    _run(2, main)
