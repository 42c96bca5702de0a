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
partitioned collectives.  The fused partitioned allreduce
(:mod:`repro.pcoll.fused`) runs the same ring step.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, SUM
from repro.sim.events import AllOf, Event
from repro.sim.resources import Counter, Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.world import RankCtx

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


class _CliqueState:
    """Shared state of one NCCL communicator (all ranks, one per comm)."""

    def __init__(self, engine, n_ranks: int) -> None:
        self.engine = engine
        self.n_ranks = n_ranks
        self.members: Dict[int, "NcclComm"] = {}
        self.op_states: Dict[int, "_OpState"] = {}
        self.init_count = Counter(engine)

    def op_state(
        self, seq: int, n_ranks: int, chunk_elems: int, n_channels: int, dtype
    ) -> "_OpState":
        st = self.op_states.get(seq)
        if st is None:
            st = _OpState(self.engine, n_ranks, chunk_elems, n_channels, dtype)
            self.op_states[seq] = st
        return st


class _OpState:
    """Rendezvous + per-channel/per-step arrival flags for one call."""

    def __init__(self, engine, n_ranks: int, chunk_elems: int, n_channels: int, dtype) -> None:
        self.arrived = Counter(engine)
        self.n_ranks = n_ranks
        n_steps = 2 * (n_ranks - 1)
        self.n_steps = n_steps
        self.n_channels = n_channels
        # flags[rank][channel][step]: channel data landed in rank's slot.
        self.flags: List[List[List[Flag]]] = [
            [[Flag(engine) for _ in range(n_steps)] for _ in range(n_channels)]
            for _ in range(n_ranks)
        ]
        # staging[rank]: one slot per step (channel slices sub-divide it),
        # so a fast sender can never overwrite an unconsumed chunk.
        self.staging: List[Optional[Buffer]] = [None] * n_ranks
        self.chunk_elems = chunk_elems
        self.dtype = dtype
        #: Ranks whose ring kernel has exited; the last one retires the op.
        self.finished = 0

    def slot(self, rank: int, channel: int, step: int) -> Buffer:
        buf = self.staging[rank]
        assert buf is not None, "peer kernel not resident yet"
        sub = self.chunk_elems // self.n_channels
        return buf.view(step * self.chunk_elems + channel * sub, sub)


class NcclComm:
    """Per-rank NCCL communicator handle."""

    def __init__(self, ctx: "RankCtx", clique: _CliqueState, rank: int) -> None:
        self.ctx = ctx
        self.clique = clique
        self.rank = rank
        self.engine = ctx.engine
        self.device = ctx.gpu
        self._op_seq = itertools.count()

    # -- init (collective) ---------------------------------------------------
    @classmethod
    def init(cls, ctx: "RankCtx") -> Generator:
        """ncclCommInitRank over ``ctx.comm``; every rank must call it."""
        comm = ctx.comm
        registry = ctx.world._nccl_cliques
        clique = registry.get(comm.comm_id)
        if clique is None:
            clique = _CliqueState(ctx.engine, comm.size)
            registry[comm.comm_id] = clique
        nccl = cls(ctx, clique, comm.rank)
        clique.members[comm.rank] = nccl
        yield ctx.engine.timeout(NCCL_INIT_COST)
        clique.init_count.add(1)
        yield clique.init_count.wait_for(clique.n_ranks)
        return nccl

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
        P = self.clique.n_ranks
        n = len(sendbuf.data)
        if n % P != 0:
            raise MpiUsageError(f"count {n} not divisible by {P} ranks")
        if P == 1:
            def solo():
                yield self.engine.timeout(self.device.cost.launch_latency)
                recvbuf.copy_from(sendbuf)
            stream = stream or self.device.default_stream
            return stream.enqueue(solo, label="ncclAllReduce")

        stream = stream or self.device.default_stream
        # The op sequence number is drawn when the op *starts executing*,
        # not at enqueue: stream FIFO order makes both equivalent eagerly,
        # and a stream-captured op then draws a fresh number per graph
        # replay (per-seq clique state is one-shot, so replaying a baked
        # number would rendezvous against spent flags).
        return stream.enqueue(
            lambda: self._ring_kernel(next(self._op_seq), sendbuf, recvbuf, op),
            label="ncclAllReduce",
        )

    # -- the fused ring kernel ------------------------------------------------------
    def _ring_kernel(self, seq: int, sendbuf: Buffer, recvbuf: Buffer, op: MpiOp) -> Generator:
        P = self.clique.n_ranks
        r = self.rank
        n = len(sendbuf.data)
        chunk = n // P
        n_channels = _pick_channels(chunk)
        state = self.clique.op_state(seq, P, chunk, n_channels, sendbuf.data.dtype)

        # Kernel launch + local staging slot registration.
        yield self.engine.timeout(self.device.cost.launch_latency)
        if not recvbuf.same_allocation(sendbuf):
            recvbuf.copy_from(sendbuf)  # local pass handled inside the kernel
            yield self.engine.timeout(sendbuf.nbytes * 2 / self.device.cost.hbm_bw)
        state.staging[r] = Buffer.alloc(
            chunk * state.n_steps, sendbuf.data.dtype, MemSpace.DEVICE,
            node=self.device.node, gpu=self.device.gpu_id, label=f"nccl_stage{r}",
        )

        # Rendezvous: spin until all peers' kernels are resident.
        state.arrived.add(1)
        yield state.arrived.wait_for(P)

        # Deferred: importing repro.pcoll loads every partitioned
        # collective, which a process that only runs NCCL never needs.
        from repro.pcoll.ring import ring_allreduce_schedule, ring_step

        steps = ring_allreduce_schedule(r, P, op).steps
        dataplane = self.ctx.world.fabric.dataplane
        right = (r + 1) % P
        sub = chunk // n_channels

        def channel_ring(c: int):
            def channel_chunk(k: int) -> Buffer:
                return recvbuf.view(k * chunk + c * sub, sub)

            for i, step in enumerate(steps):
                yield from ring_step(
                    self.device, dataplane, step, channel_chunk,
                    state.slot(right, c, i), state.flags[right][c][i],
                    state.slot(r, c, i), state.flags[r][c][i],
                    "nccl", f"nccl_c{c}s{i}",
                )

        channels = [
            self.engine.process(channel_ring(c), name=f"nccl_ch{c}")
            for c in range(n_channels)
        ]
        yield AllOf(self.engine, channels)
        # Every put into a rank's staging slot is awaited by that rank, so
        # once all P kernels exited no transfer still targets this op's
        # slots: retire it (a seq is never reused, not even by a replay).
        state.finished += 1
        if state.finished == P:
            del self.clique.op_states[seq]
        return None
