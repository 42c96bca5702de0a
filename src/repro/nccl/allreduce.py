"""ncclAllReduce: fused-kernel ring allreduce.

Per-rank flow (all inside one stream-enqueued "kernel"):

1. rendezvous — NCCL kernels spin until every peer's kernel is resident;
2. ring reduce-scatter-allgather, channel-pipelined: each channel walks
   the paper's Algorithm 1 schedule (:func:`~repro.pcoll.ring.
   ring_allreduce_schedule`) over its slice of every ring chunk, one
   :func:`~repro.pcoll.ring.ring_step` per step — a put into the right
   neighbour's staging slot over NVLink/IB (GPUDirect), then a reduce or
   copy of the slice arriving from the left in device memory;
3. completion — the kernel exits; the application synchronizes the stream
   once (not per step).

All coordination is device-side (flags in GPU memory), which is exactly
the advantage the paper attributes to NCCL over host-progressed
partitioned collectives.  Each ``ncclCommInitRank`` is one
:class:`~repro.pcoll.ring.RingClique` and each call one
:class:`~repro.pcoll.ring.RingBoard` (its rendezvous counter and flags).
A rank's staging window belongs to its :class:`NcclComm`, like NCCL's
per-communicator buffers: every call registers the same window on its
board, and only a call whose ``chunk * n_steps`` or dtype differs
replaces it.  The fused partitioned allreduce (:mod:`repro.pcoll.fused`)
runs the same ring step on the same board.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, SUM
from repro.sim.events import AllOf, Event
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.world import RankCtx
    from repro.pcoll.ring import RingClique

#: One-time ncclCommInitRank cost per rank (connection setup, IPC opens).
NCCL_INIT_COST = 120.0 * us
#: Parallel ring channels (NCCL runs many independent pipelines so the
#: wire never idles behind a reduction; production uses up to 32).
NCCL_CHANNELS = 8
#: Minimum elements per channel per ring chunk before splitting channels.
NCCL_MIN_CHUNK = 1024


def _pick_channels(chunk_elems: int) -> int:
    """Largest channel count <= NCCL_CHANNELS that divides the ring chunk
    and keeps slices above the minimum granularity."""
    c = min(NCCL_CHANNELS, max(1, chunk_elems // NCCL_MIN_CHUNK))
    while c > 1 and chunk_elems % c != 0:
        c -= 1
    return max(1, c)


class NcclComm:
    """Per-rank NCCL communicator handle."""

    def __init__(self, ctx: "RankCtx", clique: "RingClique", rank: int) -> None:
        self.ctx = ctx
        self.clique = clique
        self.rank = rank
        self.engine = ctx.engine
        self.device = ctx.gpu
        self._op_seq = itertools.count()
        #: This rank's staging window, kept across calls (see _ring_kernel).
        self._window: Optional[Buffer] = None

    # -- init (collective) ---------------------------------------------------
    @classmethod
    def init(cls, ctx: "RankCtx") -> Generator:
        """ncclCommInitRank over ``ctx.comm``; every rank must call it.

        Each call makes a new NCCL communicator: the nth init on an MPI
        communicator is one clique on every rank.
        """
        # Deferred: importing repro.pcoll loads every partitioned
        # collective, which a process that never inits NCCL never needs.
        from repro.pcoll.ring import RingClique

        comm = ctx.comm
        clique = ctx.world.shared(comm, "nccl", lambda: RingClique(ctx.engine, comm.size))
        yield NCCL_INIT_COST
        clique.joined.add(1)
        yield clique.joined.wait_for(clique.n_ranks)
        return cls(ctx, clique, comm.rank)

    # -- ncclAllReduce ----------------------------------------------------------
    def all_reduce(
        self,
        sendbuf: Buffer,
        recvbuf: Buffer,
        op: MpiOp = SUM,
        stream=None,
    ) -> Event:
        """Enqueue the fused allreduce kernel; returns its completion event.

        In-place (sendbuf is recvbuf) is supported and preferred, like
        NCCL.  The element count must divide by the communicator size
        (ring chunking).
        """
        if len(sendbuf.data) != len(recvbuf.data):
            raise MpiUsageError("ncclAllReduce: buffer length mismatch")
        if sendbuf.space is not MemSpace.DEVICE or recvbuf.space is not MemSpace.DEVICE:
            raise MpiUsageError("ncclAllReduce requires device buffers")
        op.check("ncclAllReduce", sendbuf.data.dtype)
        P = self.clique.n_ranks
        n = len(sendbuf.data)
        if n % P != 0:
            raise MpiUsageError(f"count {n} not divisible by {P} ranks")
        if P == 1:
            def solo():
                yield self.device.params.launch_latency
                recvbuf.copy_from(sendbuf)
            stream = stream or self.device.default_stream
            return stream.enqueue(solo, label="ncclAllReduce", buffers=(sendbuf, recvbuf))

        stream = stream or self.device.default_stream
        # The op sequence number is drawn when the op *starts executing*,
        # not at enqueue: stream FIFO order makes both equivalent eagerly,
        # and a stream-captured op then draws a fresh number per graph
        # replay (per-seq clique state is one-shot, so replaying a baked
        # number would rendezvous against spent flags).
        return stream.enqueue(
            lambda: self._ring_kernel(next(self._op_seq), sendbuf, recvbuf, op),
            label="ncclAllReduce", buffers=(sendbuf, recvbuf),
        )

    # -- the fused ring kernel ------------------------------------------------------
    def _ring_kernel(self, seq: int, sendbuf: Buffer, recvbuf: Buffer, op: MpiOp) -> Generator:
        from repro.pcoll.ring import ring_allreduce_schedule, ring_step

        clique = self.clique
        P = clique.n_ranks
        r = self.rank
        chunk = len(sendbuf.data) // P
        n_channels = _pick_channels(chunk)
        steps = ring_allreduce_schedule(r, P, op).steps
        board = clique.board(seq, n_channels, len(steps), [None] * P)

        # Kernel launch + local staging window registration.
        yield self.device.params.launch_latency
        if not recvbuf.same_allocation(sendbuf):
            recvbuf.copy_from(sendbuf)  # local pass handled inside the kernel
            yield sendbuf.nbytes * 2 / self.device.params.sm_hbm_bw
        # Reusing the window is safe: this rank's next kernel on the stream
        # starts after this one exits, no peer puts into the next call's
        # slots before every rank joined its rendezvous, and this rank
        # awaits every put into its slots before it exits.  A call that
        # overlaps this one on another stream finds no window and
        # registers a fresh one.
        window, self._window = self._window, None
        dtype = sendbuf.data.dtype
        if window is None or len(window.data) != chunk * len(steps) or window.data.dtype != dtype:
            window = Buffer.alloc(
                chunk * len(steps), dtype, MemSpace.DEVICE,
                node=self.device.node, gpu=self.device.gpu_id, label=f"nccl_stage{r}",
            )
        board.windows[r] = window

        # Rendezvous: spin until all peers' kernels are resident.
        board.joined.add(1)
        yield board.joined.wait_for(P)

        dataplane = self.ctx.world.fabric.dataplane
        sub = chunk // n_channels

        def channel_ring(c: int):
            def channel_chunk(k: int) -> Buffer:
                return recvbuf.view(k * chunk + c * sub, sub)

            for i, step in enumerate(steps):
                yield from ring_step(
                    self.device, dataplane, board, r, c, i, step, channel_chunk,
                    "nccl", f"nccl_c{c}s{i}",
                )
            clique.exit(seq)

        channels = [
            self.engine.process(channel_ring(c), name=f"nccl_ch{c}")
            for c in range(n_channels)
        ]
        yield AllOf(self.engine, channels)
        self._window = window
        return None
