"""Tests for the collectives beyond the in-situ path's own: scatter,
dup."""

import pytest

from repro.des import Engine, SimulationError
from repro.mpi import MpiWorld


def run_world(size, main):
    eng = Engine()
    world = MpiWorld(eng, size)
    return eng, world.run(main)


# ------------------------------------------------------------- scatter
def test_scatter_distributes_root_values():
    def main(rank, comm):
        values = [10, 20, 30] if rank == 1 else None
        got = yield comm.scatter(rank, values, root=1)
        return got

    _, results = run_world(3, main)
    assert results == [10, 20, 30]


def test_scatter_wrong_length_raises():
    def main(rank, comm):
        values = [1, 2] if rank == 0 else None
        yield comm.scatter(rank, values, root=0)

    with pytest.raises(SimulationError):
        run_world(3, main)


# ------------------------------------------------------------- dup
def test_dup_isolates_collectives():
    """Messages on the dup'd communicator don't match the original."""

    def main(rank, comm):
        dup = yield comm.dup(rank)
        assert dup.size == comm.size
        if rank == 0:
            yield dup.send(0, dest=1, payload="on-dup", tag=7)
            yield comm.send(0, dest=1, payload="on-world", tag=7)
            return None
        got_world = yield comm.recv(1, source=0, tag=7)
        got_dup = yield dup.recv(1, source=0, tag=7)
        return (got_world, got_dup)

    _, results = run_world(2, main)
    assert results[1] == ("on-world", "on-dup")


def test_dup_preserves_rank_order():
    def main(rank, comm):
        dup = yield comm.dup(rank)
        return dup.translate_world_rank(rank)

    _, results = run_world(4, main)
    assert results == [0, 1, 2, 3]
