"""Simulated MPI: communicators, collectives and point-to-point.

This module reproduces the slice of MPI that the in-situ workflow and
PoLiMER need, with mpi4py-flavoured semantics:

* a world communicator created by :class:`MpiWorld`;
* ``split(color, key)`` building sub-communicators — the paper's
  in-situ frameworks organize simulation and analysis partitions with
  exactly this mechanism (§IV-B);
* blocking ``send``/``recv`` with tag/source matching (wildcards
  supported);
* ``barrier``, ``bcast``, ``gather``, ``scatter``, ``allgather``,
  ``allreduce``, ``reduce``, ``alltoall`` and ``dup``.

All operations are *awaitables*: a simulated process obtains one from
the communicator and ``yield``s it. Completion timing comes from the
communicator's :class:`~repro.mpi.costs.CommCostModel`.

Payload size for the cost model is estimated with
:func:`payload_nbytes`, which understands numpy arrays and common
containers; logical tests with ``ZeroCost`` never look at it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.des.engine import Engine, SimulationError
from repro.des.process import Process, SimEvent
from repro.faults.injector import get_faults
from repro.mpi.costs import CommCostModel, ZeroCost

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MpiWorld",
    "payload_nbytes",
]

#: Wildcard constants mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE: int = -1
ANY_TAG: int = -1


def payload_nbytes(obj: Any) -> int:
    """Best-effort byte size of a message payload for the cost model."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (list, tuple, set)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return 64  # opaque object: charge a small fixed envelope


class _Message:
    __slots__ = ("source", "tag", "payload", "arrival")

    def __init__(self, source: int, tag: int, payload: Any, arrival: float):
        self.source = source
        self.tag = tag
        self.payload = payload
        self.arrival = arrival


class _PendingRecv:
    __slots__ = ("source", "tag", "event")

    def __init__(self, source: int, tag: int, event: SimEvent):
        self.source = source
        self.tag = tag
        self.event = event

    def matches(self, msg: _Message) -> bool:
        return (self.source in (ANY_SOURCE, msg.source)) and (
            self.tag in (ANY_TAG, msg.tag)
        )


class _CollectiveRound:
    """State for one in-flight collective on a communicator.

    ``members`` records ``(rank, per_rank_event, deliver)`` in join
    order for the release.
    """

    __slots__ = (
        "op",
        "expected",
        "contributions",
        "event",
        "finalize",
        "members",
    )

    def __init__(
        self,
        op: str,
        expected: int,
        event: SimEvent,
        finalize: Callable[[dict[int, Any]], Any],
    ):
        self.op = op
        self.expected = expected
        self.contributions: dict[int, Any] = {}
        self.event = event
        self.finalize = finalize
        self.members: list[tuple[int, SimEvent, Callable[[int, Any], Any]]] = []

    def release(self, result: Any) -> None:
        """Wake every member from one engine event, in join order.

        The shared event succeeds inline, then each per-rank wrapper
        (ops with a ``deliver``) succeeds inline with its delivered
        slice, so the heap sees exactly one release event per
        collective rather than one wakeup per rank (ordering argument
        in DESIGN.md §15).
        """
        self.event._succeed_inline(result)
        for rank, per_rank_event, deliver in self.members:
            per_rank_event._succeed_inline(deliver(rank, result))


class Communicator:
    """A group of ranks sharing collectives and point-to-point matching.

    Rank numbering is always dense ``0..size-1`` within the
    communicator; :attr:`world_ranks` maps back to world numbering.
    """

    _next_id = 0

    def __init__(
        self,
        engine: Engine,
        world_ranks: Sequence[int],
        cost: CommCostModel,
        name: str = "comm",
    ) -> None:
        self.engine = engine
        self.world_ranks = tuple(world_ranks)
        self.cost = cost
        self.name = name
        self.id = Communicator._next_id
        Communicator._next_id += 1
        self._mailboxes: dict[int, list[_Message]] = {
            r: [] for r in range(len(world_ranks))
        }
        self._pending_recvs: dict[int, list[_PendingRecv]] = {
            r: [] for r in range(len(world_ranks))
        }
        self._rounds: dict[str, _CollectiveRound] = {}
        # Each rank may have at most one outstanding collective; track
        # arrivals for deadlock diagnostics.
        self._stats = {"p2p_messages": 0, "collectives": 0}
        faults = get_faults()
        self._faults = faults if faults.enabled and faults.active else None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def translate_world_rank(self, world_rank: int) -> int:
        """Local rank of a world rank, or raise if not a member."""
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            raise SimulationError(
                f"world rank {world_rank} not in {self.name}"
            ) from None

    # -- point-to-point ------------------------------------------------
    def send(self, source: int, dest: int, payload: Any, tag: int = 0) -> SimEvent:
        """Eager send: the returned event fires after sender overhead.

        The message is injected immediately and becomes receivable at
        ``now + p2p_time(size)``. The sender-side event completes at the
        same wire time (rendezvous-free model: small messages dominate
        the control plane here, and the paper's measurements fold
        controller communication into interval time anyway).
        """
        self._check_rank(source)
        self._check_rank(dest)
        nbytes = payload_nbytes(payload)
        wire = self.cost.p2p_time(nbytes)
        if self._faults is not None:
            wire += self._faults.comm_delay(self.engine.now)
        arrival = self.engine.now + wire
        msg = _Message(source, tag, payload, arrival)
        self._stats["p2p_messages"] += 1
        done = SimEvent(self.engine, name=f"{self.name}.send({source}->{dest})")
        self.engine.schedule(wire, lambda: done.succeed(None))
        self.engine.schedule(wire, lambda: self._deliver(dest, msg))
        return done

    def _deliver(self, dest: int, msg: _Message) -> None:
        waiting = self._pending_recvs[dest]
        for i, pending in enumerate(waiting):
            if pending.matches(msg):
                waiting.pop(i)
                pending.event.succeed(msg.payload)
                return
        self._mailboxes[dest].append(msg)

    def recv(
        self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> SimEvent:
        """Blocking receive; resolves with the matched payload."""
        self._check_rank(rank)
        event = SimEvent(self.engine, name=f"{self.name}.recv({rank})")
        mailbox = self._mailboxes[rank]
        for i, msg in enumerate(mailbox):
            if (source in (ANY_SOURCE, msg.source)) and (
                tag in (ANY_TAG, msg.tag)
            ):
                mailbox.pop(i)
                event.succeed(msg.payload)
                return event
        self._pending_recvs[rank].append(_PendingRecv(source, tag, event))
        return event

    # -- collectives -----------------------------------------------------
    def barrier(self, rank: int) -> SimEvent:
        return self._collective("barrier", rank, None, lambda contrib: None)

    def bcast(self, rank: int, value: Any = None, root: int = 0) -> SimEvent:
        self._check_rank(root)

        def finalize(contrib: dict[int, Any]) -> Any:
            return contrib[root]

        return self._collective(f"bcast.{root}", rank, value, finalize)

    def gather(self, rank: int, value: Any, root: int = 0) -> SimEvent:
        self._check_rank(root)

        def finalize(contrib: dict[int, Any]) -> Any:
            return [contrib[r] for r in range(self.size)]

        # Non-root ranks receive None, matching mpi4py's convention.
        return self._collective(
            f"gather.{root}",
            rank,
            value,
            finalize,
            deliver=lambda r, result: result if r == root else None,
        )

    def scatter(self, rank: int, values: Any = None, root: int = 0) -> SimEvent:
        """Root distributes one element of ``values`` to each rank."""
        self._check_rank(root)
        if rank == root:
            if values is None or len(values) != self.size:
                raise SimulationError(
                    f"scatter root needs {self.size} values"
                )

        def finalize(contrib: dict[int, Any]) -> Any:
            return contrib[root]

        return self._collective(
            f"scatter.{root}",
            rank,
            list(values) if rank == root else None,
            finalize,
            deliver=lambda r, vals: vals[r],
        )

    def dup(self, rank: int) -> SimEvent:
        """Collective duplicate (MPI_Comm_dup): a fresh communicator
        with the same membership but isolated matching/collectives."""
        return self.split(rank, color=0, key=rank)

    def allgather(self, rank: int, value: Any) -> SimEvent:
        def finalize(contrib: dict[int, Any]) -> Any:
            return [contrib[r] for r in range(self.size)]

        return self._collective("allgather", rank, value, finalize)

    def allreduce(
        self, rank: int, value: Any, op: Callable[[Any, Any], Any] | None = None
    ) -> SimEvent:
        reducer = op if op is not None else (lambda a, b: a + b)

        def finalize(contrib: dict[int, Any]) -> Any:
            acc = contrib[0]
            for r in range(1, self.size):
                acc = reducer(acc, contrib[r])
            return acc

        return self._collective("allreduce", rank, value, finalize)

    def reduce(
        self,
        rank: int,
        value: Any,
        root: int = 0,
        op: Callable[[Any, Any], Any] | None = None,
    ) -> SimEvent:
        self._check_rank(root)
        reducer = op if op is not None else (lambda a, b: a + b)

        def finalize(contrib: dict[int, Any]) -> Any:
            acc = contrib[0]
            for r in range(1, self.size):
                acc = reducer(acc, contrib[r])
            return acc

        return self._collective(
            f"reduce.{root}",
            rank,
            value,
            finalize,
            deliver=lambda r, result: result if r == root else None,
        )

    def alltoall(self, rank: int, values: Sequence[Any]) -> SimEvent:
        if len(values) != self.size:
            raise SimulationError(
                f"alltoall needs {self.size} values, got {len(values)}"
            )

        def finalize(contrib: dict[int, Any]) -> Any:
            return contrib  # full matrix; deliver slices per rank

        return self._collective(
            "alltoall",
            rank,
            list(values),
            finalize,
            deliver=lambda r, matrix: [matrix[src][r] for src in range(self.size)],
        )

    def split(self, rank: int, color: int, key: int = 0) -> SimEvent:
        """Collective split into sub-communicators (MPI_Comm_split).

        Resolves with the new :class:`Communicator` for this rank's
        color. Ranks in the new communicator are ordered by ``key``,
        ties broken by old rank. A negative color yields ``None``
        (MPI_UNDEFINED semantics).
        """

        def finalize(contrib: dict[int, Any]) -> Any:
            groups: dict[int, list[tuple[int, int]]] = {}
            for r in range(self.size):
                c, k = contrib[r]
                if c >= 0:
                    groups.setdefault(c, []).append((k, r))
            comms: dict[int, Communicator] = {}
            for c, members in groups.items():
                members.sort()
                ranks = [self.world_ranks[r] for _, r in members]
                comms[c] = Communicator(
                    self.engine,
                    ranks,
                    self.cost,
                    name=f"{self.name}.split({c})",
                )
            return comms

        # deliver closures are per-caller (each rank wraps the shared
        # round event in its own per-rank event), so capturing this
        # rank's color locally is sufficient.
        def deliver(r: int, comms: dict[int, Communicator]) -> Any:
            return comms.get(color) if color >= 0 else None

        return self._collective(
            "split", rank, (color, key), finalize, deliver=deliver
        )

    # ------------------------------------------------------------------
    def _collective(
        self,
        op: str,
        rank: int,
        value: Any,
        finalize: Callable[[dict[int, Any]], Any],
        deliver: Callable[[int, Any], Any] | None = None,
    ) -> SimEvent:
        """Join collective ``op``; the returned event resolves on release.

        Every member must call with the same ``op`` before any member is
        released. Release is scheduled ``collective_time`` after the
        last arrival, modeling the synchronizing cost.
        """
        self._check_rank(rank)
        round_ = self._rounds.get(op)
        if round_ is None:
            event = SimEvent(self.engine, name=f"{self.name}.{op}")
            round_ = _CollectiveRound(op, self.size, event, finalize)
            self._rounds[op] = round_
        if rank in round_.contributions:
            raise SimulationError(
                f"rank {rank} joined collective {op!r} twice on {self.name}"
            )
        round_.contributions[rank] = value

        if deliver is not None:
            # Wrap the shared event in a per-rank event applying deliver.
            per_rank = SimEvent(self.engine, name=f"{self.name}.{op}.r{rank}")
            round_.members.append((rank, per_rank, deliver))
            out_event = per_rank
        else:
            out_event = round_.event

        if len(round_.contributions) == round_.expected:
            self._stats["collectives"] += 1
            nbytes = max(
                payload_nbytes(v) for v in round_.contributions.values()
            )
            base_op = op.split(".")[0]
            cost = self.cost.collective_time(base_op, self.size, nbytes)
            if self._faults is not None:
                cost += self._faults.comm_delay(self.engine.now)
            del self._rounds[op]
            result = round_.finalize(round_.contributions)
            # One release event wakes every member in join order.
            self.engine.schedule(cost, lambda: round_.release(result))
        return out_event

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(
                f"rank {rank} out of range for {self.name} (size {self.size})"
            )

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator {self.name!r} size={self.size}>"


class MpiWorld:
    """Factory for the world communicator and its rank processes.

    Mirrors ``mpiexec -n size``: you provide a rank *main function*
    taking ``(rank, comm)`` and returning a generator; :meth:`launch`
    spawns one simulated process per rank.
    """

    def __init__(
        self,
        engine: Engine,
        size: int,
        cost: CommCostModel | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError("world size must be positive")
        self.engine = engine
        self.comm = Communicator(
            engine, list(range(size)), cost if cost is not None else ZeroCost(),
            name="world",
        )

    @property
    def size(self) -> int:
        return self.comm.size

    def launch(
        self, main: Callable[[int, Communicator], Any]
    ) -> list[Process]:
        """Spawn ``main(rank, world_comm)`` as a process for every rank."""
        return [
            Process(self.engine, main(rank, self.comm), name=f"rank{rank}")
            for rank in range(self.size)
        ]

    def run(self, main: Callable[[int, Communicator], Any]) -> list[Any]:
        """Launch, run to completion, and return per-rank results."""
        procs = self.launch(main)
        self.engine.run()
        still_alive = [p.name for p in procs if p.alive]
        if still_alive:
            raise SimulationError(
                f"deadlock: ranks never finished: {still_alive}"
            )
        return [p.result for p in procs]
