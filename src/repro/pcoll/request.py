"""PcollRequest: a partitioned collective in flight (Algorithm 2 executor).

The collective is built *on top of* the partitioned point-to-point layer
(paper Section IV-B): at init time it creates one partitioned send channel
per outgoing neighbour and one receive channel per incoming neighbour of
its schedule.  Wire geometry: user partition ``u`` executing schedule step
``i`` that sends to neighbour ``o`` uses wire partition
``u * sends_to(o) + ordinal(o, i)`` of the channel to ``o`` — the paper's
"transport partition = (user partition * user partition size) + R" mapping
generalized to arbitrary schedules.

Progression: one state-machine coroutine per user partition walks the
schedule (independently per partition — the pipelining that lets the
collective overlap the producing kernel).  Reductions launch a device
kernel and synchronize *inside the collective*, which is exactly the cost
the paper identifies as the remaining gap to NCCL (Section VI-B).
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MpiOp, NOP
from repro.mpi.requests import PersistentRequest
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.p2p import PUT_ISSUE_COST, PrecvRequest, PsendRequest, psend_init, precv_init
from repro.pcoll.schedule import Schedule
from repro.sim.events import AllOf
from repro.sim.resources import Counter, Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator

#: Host cost of building one schedule step at init time.
SCHEDULE_STEP_COST = 2.4 * us
#: Carving the working/staging buffers out of the component's device pool.
POOL_ALLOC_COST = 25.0 * us
#: Tag space for internal collective channels (per collective instance).
_PCOLL_TAG_BASE = 1 << 24


class PcollRequest(PersistentRequest):
    """One rank's handle on a partitioned collective."""

    #: Host cost of MPI_Start.
    START_COST = 0.5 * us
    #: Host cost of the host-binding MPI_Pready (one put issue).
    PREADY_COST = PUT_ISSUE_COST

    def __init__(
        self,
        comm: "Communicator",
        sendbuf: Buffer,
        recvbuf: Buffer,
        partitions: int,
        op: MpiOp,
        schedule: Schedule,
        device: "Device",
        name: str = "pcoll",
    ) -> None:
        if len(sendbuf.data) != len(recvbuf.data):
            raise MpiUsageError("sendbuf/recvbuf length mismatch")
        n = len(sendbuf.data)
        if n % partitions != 0:
            raise MpiUsageError(f"{n} elements do not divide into {partitions} partitions")
        part_elems = n // partitions
        if part_elems % schedule.n_chunks != 0:
            raise MpiUsageError(
                f"user partition of {part_elems} elements does not divide into "
                f"{schedule.n_chunks} ring chunks"
            )
        super().__init__(comm.rt, name)
        self.comm = comm
        self.sendbuf = sendbuf
        self.recvbuf = recvbuf          # doubles as the working buffer W
        self.partitions = partitions
        self.op = op
        self.schedule = schedule
        self.device = device
        self.in_place = sendbuf.same_allocation(recvbuf)
        self.chunk_elems = part_elems // schedule.n_chunks
        self.part_elems = part_elems

        # Filled by _init_channels (during <coll>_init).
        self.send_ch: Dict[int, PsendRequest] = {}
        self.recv_ch: Dict[int, PrecvRequest] = {}
        self.send_ordinal: Dict[int, Dict[int, int]] = {}  # nbr -> step -> ordinal
        self.recv_ordinal: Dict[int, Dict[int, int]] = {}
        self._send_staging: Dict[int, Buffer] = {}

        # Epoch state (re-created by each MPI_Start).
        self.user_ready: List[Flag] = []
        self.partition_done: List[Flag] = []
        self._pready_called: List[bool] = []
        self._prepared_flag = Flag(self.engine)
        self.done_count = Counter(self.engine)

        # Collective channels match by a per-communicator ordinal: MPI
        # requires every rank to initialize collectives on a communicator
        # in the same order, so the Nth init gets tag base+N on all ranks.
        self._tag = _PCOLL_TAG_BASE + comm.next_call("pcoll")

    # -- geometry helpers ----------------------------------------------------
    def _w_chunk(self, u: int, chunk: int) -> Buffer:
        """Chunk ``chunk`` of user partition ``u`` in the working buffer."""
        start = u * self.part_elems + chunk * self.chunk_elems
        return self.recvbuf.view(start, self.chunk_elems)

    # -- init (called by api.p<coll>_init) ----------------------------------------
    def _init_channels(self) -> Generator:
        """Create the underlying partitioned P2P channels + pay init costs."""
        yield SCHEDULE_STEP_COST * self.schedule.n_steps
        yield POOL_ALLOC_COST

        for o in self.schedule.all_outgoing():
            n_sends = self.schedule.sends_to(o)
            self.send_ordinal[o] = {}
            k = 0
            for i, s in enumerate(self.schedule.steps):
                if o in s.outgoing:
                    self.send_ordinal[o][i] = k
                    k += 1
            # Geometry-only send staging (puts override the source slice,
            # so this region is never touched: zero-memory allocation).
            staging = Buffer.alloc_virtual(
                self.partitions * n_sends * self.chunk_elems,
                self.recvbuf.data.dtype,
                MemSpace.DEVICE,
                node=self.device.node,
                gpu=self.device.gpu_id,
                label=f"pcoll_tx{o}",
            )
            self._send_staging[o] = staging
            self.send_ch[o] = yield from psend_init(
                self.comm, staging, self.partitions * n_sends, o, tag=self._tag
            )
        for inc in self.schedule.all_incoming():
            n_recvs = self.schedule.recvs_from(inc)
            self.recv_ordinal[inc] = {}
            k = 0
            for i, s in enumerate(self.schedule.steps):
                if inc in s.incoming:
                    self.recv_ordinal[inc][i] = k
                    k += 1
            rx = Buffer.alloc(
                self.partitions * n_recvs * self.chunk_elems,
                self.recvbuf.data.dtype,
                MemSpace.DEVICE,
                node=self.device.node,
                gpu=self.device.gpu_id,
                label=f"pcoll_rx{inc}",
            )
            self.recv_ch[inc] = yield from precv_init(
                self.comm, rx, self.partitions * n_recvs, inc, tag=self._tag
            )

    # -- MPI_Start ------------------------------------------------------------------
    def _begin_user_epoch(self) -> None:
        """Open an epoch with fresh per-user-partition flags."""
        self._begin_epoch()
        self.user_ready = [Flag(self.engine) for _ in range(self.partitions)]
        self.partition_done = [Flag(self.engine) for _ in range(self.partitions)]
        self._pready_called = [False] * self.partitions
        self._prepared_flag = Flag(self.engine)
        self.done_count.reset()

    def start(self) -> Generator:
        yield self.START_COST
        self._begin_user_epoch()
        for ch in self.send_ch.values():
            yield from ch.start()
        for ch in self.recv_ch.values():
            yield from ch.start()
        epoch = self.epoch
        for u in range(self.partitions):
            self.engine.process(self._run_partition(u, epoch), name=f"pcoll.sm{u}")
        if self.preq is not None:
            self.preq.arm_epoch()

    # -- MPIX_Pbuf_prepare ---------------------------------------------------------
    def pbuf_prepare(self) -> Generator:
        """Synchronize all processes associated with the collective."""
        if not self.active:
            raise MpiStateError("pbuf_prepare before MPI_Start")
        procs = [
            self.engine.process(ch.pbuf_prepare(), name="pcoll.prep_s")
            for ch in self.send_ch.values()
        ] + [
            self.engine.process(ch.pbuf_prepare(), name="pcoll.prep_r")
            for ch in self.recv_ch.values()
        ]
        if procs:
            yield AllOf(self.engine, procs)
        self._prepared_flag.set()

    # -- MPI_Pready (user partition, host binding) ------------------------------------
    def pready(self, user_partition: int) -> Generator:
        yield self.PREADY_COST
        self.issue_user_pready(user_partition)

    def issue_user_pready(self, u: int) -> None:
        """Zero-time core shared with the device (PE) path."""
        if not self.active:
            raise MpiStateError("collective MPI_Pready outside an active epoch")
        if not 0 <= u < self.partitions:
            raise MpiUsageError(f"user partition {u} out of range")
        if self._pready_called[u]:
            raise MpiStateError(f"MPI_Pready called twice for user partition {u}")
        self._pready_called[u] = True
        if not self.in_place:
            # Stage this partition's data into the working buffer first.
            self.engine.process(self._stage_partition(u), name=f"pcoll.stage{u}")
        else:
            self.user_ready[u].set()

    def _stage_partition(self, u: int) -> Generator:
        src = self.sendbuf.view(u * self.part_elems, self.part_elems)
        dst = self.recvbuf.view(u * self.part_elems, self.part_elems)
        yield self.rt.fabric.dataplane.put(
            src, dst, traffic_class="pcoll", name="pcoll_stage"
        )
        self.user_ready[u].set()

    def parrived(self, user_partition: int) -> bool:
        """Has this user partition's collective completed? (flag read)"""
        if not 0 <= user_partition < self.partitions:
            raise MpiUsageError(f"user partition {user_partition} out of range")
        return self.partition_done[user_partition].is_set

    # -- the per-partition schedule state machine (Algorithm 2) ------------------------
    def _run_partition(self, u: int, epoch: int) -> Generator:
        # No sends may leave before the epoch's channel handshake is done.
        yield self._prepared_flag.wait()
        if self.schedule.requires_local_contribution:
            yield self.user_ready[u].wait()
        if self.epoch != epoch:
            return  # stale epoch
        for i, step in enumerate(self.schedule.steps):
            for o in step.outgoing:
                name = f"ps_u{u}s{i}"
                yield self.rt.progress.dispatch(partial(
                    self.engine.process, self._issue_send(u, i, o), name=name), name)
            for inc in step.incoming:
                ch = self.recv_ch[inc]
                tp = u * self.schedule.recvs_from(inc) + self.recv_ordinal[inc][i]
                flag = ch.arrived_flags[tp]
                if not flag.is_set:
                    yield flag.wait()
                yield self.rt.params.progress_poll_latency
                name = f"pc_u{u}s{i}"
                yield self.rt.progress.dispatch(partial(
                    self.engine.process, self._consume(u, i, inc, tp, step), name=name), name)
        self.partition_done[u].set()
        self.done_count.add(1)

    def _issue_send(self, u: int, i: int, o: int) -> Generator:
        """Internal host MPI_Pready on the channel to ``o`` for step ``i``."""
        yield PUT_ISSUE_COST
        tp = u * self.schedule.sends_to(o) + self.send_ordinal[o][i]
        src = self._w_chunk(u, self.schedule.steps[i].send_chunk)
        self.send_ch[o].issue_pready(tp, with_data=True, src_override=src)

    def _consume(self, u: int, i: int, inc: int, tp: int, step) -> Generator:
        """Reduce or copy an arrived chunk into the working buffer."""
        ch = self.recv_ch[inc]
        slot = ch.buf.partition(tp, ch.partitions)
        target = self._w_chunk(u, step.recv_chunk)
        if step.op is NOP:
            # Pure data movement: local device copy (DMA).
            yield self.device.params.memcpy_api_cost
            yield self.rt.fabric.dataplane.put(
                slot, target, traffic_class="pcoll", name="pcoll_copy"
            )
        else:
            # Launch a reduction kernel and synchronize before the next
            # step may consume this chunk (numerical correctness — the
            # cudaStreamSynchronize *inside the collective*, Section VI-B).
            grid = max(1, math.ceil(self.chunk_elems / 1024))
            block = min(1024, self.chunk_elems)
            kernel = UniformKernel(
                grid, block,
                WorkSpec(flops_per_thread=1.0, bytes_per_thread=3.0 * target.itemsize),
                name="pcoll_reduce",
                apply=lambda: step.op.reduce_into(target.data, slot.data),
            )
            yield from self.device.launch_h(kernel)
            yield from self.device.sync_h()

    # -- MPI_Wait ----------------------------------------------------------------------
    def wait(self) -> Generator:
        yield self.rt.params.mpi_call_overhead
        if not self.active:
            return self.status
        yield self.done_count.wait_for(self.partitions)
        # Close the internal channels' epochs: all wire partitions have
        # been readied/arrived by now; the sender side may still have its
        # last allgather puts in flight (local completion).
        for ch in self.send_ch.values():
            yield from ch.wait()
        for ch in self.recv_ch.values():
            yield from ch.wait()
        yield self.rt.params.progress_poll_latency
        self._complete({"epoch": self.epoch})
        return self.status

    # -- MPIX_Prequest_create (device bindings for the collective) ----------------------
    def prequest_create(
        self,
        device: "Device",
        grid: int,
        block: int,
        signal_mode: SignalMode = SignalMode.BLOCK,
    ) -> Generator:
        """Device request whose transport partitions are the collective's
        *user* partitions: device blocks signal readiness, the progression
        engine triggers the collective's per-partition schedule."""
        from repro.partitioned.prequest import CopyMode, Prequest

        if grid % self.partitions != 0:
            raise MpiUsageError(
                f"grid {grid} not divisible by {self.partitions} user partitions"
            )
        agg = AggregationSpec(grid, block, grid // self.partitions, signal_mode)
        for cost in self._prequest_costs():
            yield cost
        preq = Prequest(
            self, device, agg, CopyMode.PROGRESSION_ENGINE,
            on_ready=self.issue_user_pready,
        )
        self.preq = preq
        if self.active:
            preq.arm_epoch()
        return preq

    def _prequest_costs(self) -> Tuple[float, ...]:
        """Host costs of MPIX_Prequest_create, charged in order: the device
        counter, the pinned host flag page the progression engine polls,
        its UCX mapping, and the descriptor copy."""
        p = self.rt.params
        return (
            p.cuda_malloc_cost,
            p.cuda_host_alloc_cost,
            p.ucp_mem_map_per_call,
            p.memcpy_api_cost,
        )
