"""Communicators.

A :class:`CommGroup` is the shared identity of a communicator (id + the
ordered list of world ranks); each rank holds its own :class:`Communicator`
facade bound to its local runtime, exposing the MPI API as generator
methods (``req = yield from comm.isend(...)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence

from repro.hw.memory import Buffer
from repro.mpi import collectives, p2p
from repro.mpi.errors import MpiUsageError
from repro.mpi.matching import ANY
from repro.mpi.ops import MpiOp, SUM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime
    from repro.mpi.world import World

ANY_SOURCE = ANY
ANY_TAG = ANY


class CommGroup:
    """Shared communicator identity."""

    def __init__(self, comm_id: int, world_ranks: Sequence[int]) -> None:
        self.comm_id = comm_id
        self.world_ranks: List[int] = list(world_ranks)

    @property
    def size(self) -> int:
        return len(self.world_ranks)


class _SplitSlot:
    """Collects one split round's (color, key) submissions."""

    def __init__(self, world: "World", expected: int) -> None:
        self.world = world
        self.expected = expected
        self._submissions: Dict[int, tuple] = {}  # parent rank -> (color, key, world_rank)
        self._groups: Optional[Dict[int, CommGroup]] = None

    def submit(self, parent_rank: int, color: int, key: int, world_rank: int) -> None:
        self._submissions[parent_rank] = (color, key, world_rank)

    def group_for(self, color: int) -> Optional[CommGroup]:
        if len(self._submissions) != self.expected:
            raise MpiUsageError(
                "comm split used before all members submitted (missing barrier?)"
            )
        if self._groups is None:
            by_color: Dict[int, list] = {}
            for prank, (c, key, wrank) in self._submissions.items():
                if c >= 0:
                    by_color.setdefault(c, []).append((key, prank, wrank))
            self._groups = {}
            for c, members in by_color.items():
                members.sort()  # by key, then parent rank (MPI tie-break)
                self._groups[c] = CommGroup(
                    self.world.alloc_comm_id(), [wrank for _k, _p, wrank in members]
                )
        if color < 0:
            return None
        return self._groups[color]


class Communicator:
    """One rank's view of a communicator."""

    def __init__(self, group: CommGroup, rt: "MpiRuntime") -> None:
        self.group = group
        self.rt = rt
        try:
            self.rank = group.world_ranks.index(rt.world_rank)
        except ValueError:
            raise MpiUsageError(
                f"world rank {rt.world_rank} is not in communicator {group.comm_id}"
            )
        rt.comms[group.comm_id] = self
        self._calls: Dict[str, int] = {}
        self._coll: Optional["Communicator"] = None

    # -- identity ---------------------------------------------------------------
    @property
    def comm_id(self) -> int:
        return self.group.comm_id

    @property
    def size(self) -> int:
        return self.group.size

    def world_rank_of(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise MpiUsageError(f"rank {comm_rank} out of range (size {self.size})")
        return self.group.world_ranks[comm_rank]

    def coll(self) -> "Communicator":
        """The collectives' private context: same group, id ``~comm_id``, so
        no receive posted here (not even ``ANY_SOURCE``) matches their traffic."""
        if self._coll is None:
            self._coll = Communicator(CommGroup(~self.comm_id, self.group.world_ranks), self.rt)
        return self._coll

    def next_call(self, kind: str) -> int:
        """Number this rank's next collective call of ``kind`` (0, 1, ...)."""
        n = self._calls.get(kind, 0)
        self._calls[kind] = n + 1
        return n

    # -- communicator management ------------------------------------------------
    def dup(self) -> Generator:
        """MPI_Comm_dup: same group, fresh context id (collective)."""
        return (yield from self.split(color=0, key=self.rank))

    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """MPI_Comm_split (collective): group by ``color``, order by ``key``.

        ``color < 0`` (MPI_UNDEFINED) yields None for that rank.  The new
        context id and memberships are agreed out-of-band through the
        launcher (PMIx-style), then a barrier on the parent synchronizes
        the ranks like the real collective would.
        """
        rt = self.rt
        key = key if key is not None else self.rank
        world = rt.world
        slot = world.shared(self, "split", lambda: _SplitSlot(world, self.size))
        slot.submit(self.rank, color, key, rt.world_rank)
        yield from self.barrier()
        group = slot.group_for(color)
        if group is None:
            return None
        return Communicator(group, rt)

    # -- point-to-point ------------------------------------------------------------
    # The MPI API methods hand back the protocol generator itself: no
    # wrapper frame, so a resume costs one generator call, not two.
    def isend(self, buf: Buffer, dest: int, tag: int = 0) -> Generator:
        return p2p.isend(self, buf, dest, tag)

    def irecv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        return p2p.irecv(self, buf, source, tag)

    def send(self, buf: Buffer, dest: int, tag: int = 0) -> Generator:
        return p2p.send(self, buf, dest, tag)

    def recv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        return p2p.recv(self, buf, source, tag)

    def send_init(self, buf: Buffer, dest: int, tag: int = 0) -> Generator:
        return p2p.send_init(self, buf, dest, tag)

    def recv_init(self, buf: Buffer, source: int, tag: int = 0) -> Generator:
        return p2p.recv_init(self, buf, source, tag)

    def sendrecv(
        self,
        sendbuf: Buffer,
        dest: int,
        recvbuf: Buffer,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
    ) -> Generator:
        return p2p.sendrecv(self, sendbuf, dest, recvbuf, source, sendtag, recvtag)

    # -- collectives (traditional baselines) ------------------------------------------
    def barrier(self) -> Generator:
        return collectives.barrier(self)

    def bcast(self, buf: Buffer, root: int = 0) -> Generator:
        return collectives.bcast(self, buf, root)

    def allreduce(self, sendbuf: Buffer, recvbuf: Buffer, op: MpiOp = SUM) -> Generator:
        return collectives.allreduce(self, sendbuf, recvbuf, op)

    def reduce(self, sendbuf: Buffer, recvbuf: Optional[Buffer], op: MpiOp = SUM, root: int = 0) -> Generator:
        return collectives.reduce(self, sendbuf, recvbuf, op, root)

    # -- MPI Partitioned (the paper's contribution) --------------------------------------
    def psend_init(self, buf: Buffer, partitions: int, dest: int, tag: int = 0) -> Generator:
        from repro.partitioned.p2p import psend_init

        return (yield from psend_init(self, buf, partitions, dest, tag))

    def precv_init(self, buf: Buffer, partitions: int, source: int, tag: int = 0) -> Generator:
        from repro.partitioned.p2p import precv_init

        return (yield from precv_init(self, buf, partitions, source, tag))

    # -- Partitioned collectives ------------------------------------------------------
    def pallreduce_init(
        self, sendbuf: Buffer, recvbuf: Buffer, partitions: int, op: MpiOp = SUM, **kw
    ) -> Generator:
        from repro.pcoll.api import pallreduce_init

        return (yield from pallreduce_init(self, sendbuf, recvbuf, partitions, op, **kw))

    def pbcast_init(self, buf: Buffer, partitions: int, root: int = 0, **kw) -> Generator:
        from repro.pcoll.api import pbcast_init

        return (yield from pbcast_init(self, buf, partitions, root, **kw))

    def preduce_init(
        self, buf: Buffer, partitions: int, op: MpiOp = SUM, root: int = 0, **kw
    ) -> Generator:
        from repro.pcoll.api import preduce_init

        return (yield from preduce_init(self, buf, partitions, op, root, **kw))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator id={self.comm_id} rank={self.rank}/{self.size}>"
