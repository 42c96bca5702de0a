"""Algorithm 1: ring reduce-scatter-allgather allreduce schedule.

For rank ``r`` of ``P``, at step ``i`` of ``2(P-1)``::

    I = (r - 1) mod P          # predecessor in the ring
    O = (r + 1) mod P          # successor
    R = (r + 2P - i) mod P     # chunk sent this step
    A = (r + 2P - i - 1) mod P # chunk received this step
    op = MPI_Op  if i <  P-1   # reduce-scatter phase
         NOP     otherwise     # allgather phase

Each user partition's data splits into ``P`` ring chunks and pipelines
through the schedule independently — that is what makes the partitioned
allreduce overlap with the producing kernel.

:func:`ring_step` runs one step of the schedule inside a kernel, the way
NCCL's ring does; ``ncclAllReduce`` and the fused partitioned allreduce
both execute their rings with it.  Its only device state is a
:class:`RingBoard`: one operation's arrival flags and each rank's staging
window, laid out the same on every rank like a symmetric heap.  A
:class:`RingClique` holds the boards of one communicator call (an
``ncclCommInitRank`` or a fused ``MPIX_Pallreduce_init``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.hw.memory import Buffer
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, NOP, SUM
from repro.pcoll.schedule import Schedule, Step
from repro.sim.resources import Counter, Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.dataplane.plane import Dataplane
    from repro.sim.engine import Engine

#: In-kernel cost of one ring step (flag spin + store issue).
RING_STEP_OVERHEAD = 0.35 * us


def ring_allreduce_schedule(rank: int, n_ranks: int, op: MpiOp = SUM) -> Schedule:
    """Build rank ``rank``'s ring-RSA schedule (paper Algorithm 1)."""
    if n_ranks < 2:
        raise MpiUsageError("ring allreduce needs at least 2 ranks")
    if not 0 <= rank < n_ranks:
        raise MpiUsageError(f"rank {rank} out of range for P={n_ranks}")
    incoming = ((rank - 1) % n_ranks,)
    outgoing = ((rank + 1) % n_ranks,)
    steps = []
    for i in range(2 * (n_ranks - 1)):
        send_chunk = (rank + 2 * n_ranks - i) % n_ranks
        recv_chunk = (rank + 2 * n_ranks - i - 1) % n_ranks
        step_op = op if i < (n_ranks - 1) else NOP
        steps.append(Step(incoming, send_chunk, step_op, outgoing, recv_chunk))
    return Schedule(rank, n_ranks, n_chunks=n_ranks, steps=tuple(steps), name="ring_rsa")


class RingBoard:
    """The device state of one in-kernel ring operation, shared by all ranks.

    ``flags[rank][lane][step]`` is raised when the left peer's chunk for
    ``lane`` at ``step`` has landed in ``slot(rank, lane, step)`` of rank
    ``rank``'s staging window.  A window holds one slot per (lane, step),
    so a fast sender can never overwrite an unconsumed chunk.  ``joined``
    counts the ranks that reached the operation.
    """

    def __init__(
        self, engine: "Engine", n_ranks: int, n_lanes: int, n_steps: int,
        windows: List[Optional[Buffer]],
    ) -> None:
        self.n_lanes = n_lanes
        self.n_steps = n_steps
        self.flags: List[List[List[Flag]]] = [
            [  # one comprehension per line: profilers key code objects by line
                [Flag(engine) for _ in range(n_steps)] for _ in range(n_lanes)
            ] for _ in range(n_ranks)
        ]
        self.windows = windows
        self.joined = Counter(engine)
        #: Lanes (of all ranks) that have run every step.
        self.exited = 0

    def slot(self, rank: int, lane: int, step: int) -> Buffer:
        window = self.windows[rank]
        assert window is not None, f"rank {rank} registered no staging window"
        elems = len(window.data) // (self.n_lanes * self.n_steps)
        return window.view((lane * self.n_steps + step) * elems, elems)


class RingClique:
    """The ring boards every rank of one communicator call shares.

    ``joined`` is the call's own rendezvous.  Staging windows are
    allocated once per owner and reused by every operation: the fused
    allreduce registers its ranks' windows in ``windows`` at init, and
    each NCCL rank keeps its window on its ``NcclComm`` and registers it
    on each operation's board.  :meth:`board` returns one operation's
    board, built by the first rank to reach it; the last lane to
    :meth:`exit` it retires it.
    """

    def __init__(self, engine: "Engine", n_ranks: int) -> None:
        self.engine = engine
        self.n_ranks = n_ranks
        self.joined = Counter(engine)
        self.windows: List[Optional[Buffer]] = [None] * n_ranks
        self.boards: Dict[int, RingBoard] = {}

    def board(
        self, op: int, n_lanes: int, n_steps: int, windows: List[Optional[Buffer]]
    ) -> RingBoard:
        """Operation ``op``'s board; a rank building it supplies ``windows``."""
        board = self.boards.get(op)
        if board is None:
            board = RingBoard(self.engine, self.n_ranks, n_lanes, n_steps, windows)
            self.boards[op] = board
        return board

    def exit(self, op: int) -> None:
        """One lane of one rank left operation ``op``'s ring.

        Every put into a rank's slot is awaited by that rank, so once all
        lanes exited no transfer still targets the board: retire it (an
        operation number is never reused, not even by a graph replay).
        """
        board = self.boards[op]
        board.exited += 1
        if board.exited == self.n_ranks * board.n_lanes:
            del self.boards[op]


def ring_step(
    device: "Device", dataplane: "Dataplane", board: RingBoard, rank: int, lane: int,
    i: int, step: Step, chunk: Callable[[int], Buffer], traffic_class: str, name: str,
) -> Generator:
    """Step ``i`` of ``rank``'s ring lane ``lane``, inside a kernel on ``device``.

    ``chunk(k)`` is this rank's view of ring chunk ``k``.  The step stores
    chunk ``R`` into the right peer's slot on ``board`` and raises that
    peer's flag when it lands, spins on its own flag until the left peer's
    chunk is in its own slot, then reduces (or, in the allgather phase,
    copies) it into chunk ``A`` at HBM speed.  All coordination is device
    memory: no host thread, launch or stream synchronization per step.
    """
    right = step.outgoing[0]
    yield RING_STEP_OVERHEAD
    put = dataplane.put(
        chunk(step.send_chunk), board.slot(right, lane, i),
        traffic_class=traffic_class, name=name,
    )
    dst_flag = board.flags[right][lane][i]
    put.add_callback(lambda _ev: dst_flag.set())
    flag = board.flags[rank][lane][i]
    if not flag.is_set:
        yield flag.wait()
    target = chunk(step.recv_chunk)
    slot = board.slot(rank, lane, i)
    hbm_bw = device.params.sm_hbm_bw
    if step.op is not NOP:
        step.op.reduce_into(target.data, slot.data)
        yield target.nbytes * 3 / hbm_bw
    else:
        target.data[:] = slot.data
        yield target.nbytes * 2 / hbm_bw
