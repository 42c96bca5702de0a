"""Fused device-side partitioned allreduce — the paper's proposed extension.

Section VI-B argues the device ``MPIX_Pready`` binding should be relaxed
"to allow for computation and communication within the call as that would
allow the execution of an entire allreduce operation within a kernel",
closing the gap to NCCL.  This module implements exactly that proposal on
our substrate:

* the ring schedule executes *on the device*: chunk movement is intra-
  kernel NVLink stores through ``rkey_ptr``-mapped peer staging (no host
  puts, no copy engine), arrivals are device-memory flags, reductions run
  fused in the same kernel (no per-step launch + ``cudaStreamSynchronize``);
* the host API surface is unchanged: ``start`` / ``pbuf_prepare`` /
  ``pready(u)`` / ``parrived(u)`` / ``wait`` — only the execution engine
  moved from the progression thread to the GPU;
* like the Kernel-Copy P2P mode, it requires an NVLink-reachable clique
  (all ranks on one node) — the constraint the paper ties to GB200-scale
  NVLink domains.

The ablation bench ``benchmarks/test_ablation_fused_collective.py`` shows
this recovers NCCL-class performance through the MPI-native API, which is
the paper's prediction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

import numpy as np

from repro.cuda.devapi import host_flag_write_proc
from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MpiOp, NOP, SUM
from repro.mpi.requests import PersistentRequest
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.pcoll.ring import ring_allreduce_schedule
from repro.pcoll.schedule import Schedule
from repro.sim.resources import Counter, Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator

#: In-kernel cost per ring step (flag spin + store issue), like NCCL's.
FUSED_STEP_OVERHEAD = 0.35 * us


class _FusedClique:
    """Shared device-visible state of one fused collective instance."""

    def __init__(self, engine, n_ranks: int, partitions: int, n_steps: int) -> None:
        self.engine = engine
        self.n_ranks = n_ranks
        self.partitions = partitions
        self.n_steps = n_steps
        self.members: Dict[int, "FusedPallreduce"] = {}
        self.join_count = Counter(engine)
        self.epoch_flags: Dict[int, List[List[List[Flag]]]] = {}

    def flags(self, epoch: int) -> List[List[List[Flag]]]:
        """flags[rank][partition][step] for one epoch (lazily built)."""
        f = self.epoch_flags.get(epoch)
        if f is None:
            f = [
                [[Flag(self.engine) for _ in range(self.n_steps)]
                 for _ in range(self.partitions)]
                for _ in range(self.n_ranks)
            ]
            self.epoch_flags[epoch] = f
            # Drop stale epochs to bound memory.
            for old in [e for e in self.epoch_flags if e < epoch - 1]:
                del self.epoch_flags[old]
        return f


class FusedPallreduce(PersistentRequest):
    """Partitioned allreduce executed entirely on the device."""

    def __init__(
        self,
        comm: "Communicator",
        sendbuf: Buffer,
        recvbuf: Buffer,
        partitions: int,
        op: MpiOp,
        device: "Device",
    ) -> None:
        super().__init__(comm.rt, "fused_pallreduce")
        if comm.size < 2:
            raise MpiUsageError("fused pallreduce needs at least 2 ranks")
        n = len(sendbuf.data)
        if len(recvbuf.data) != n:
            raise MpiUsageError("sendbuf/recvbuf length mismatch")
        if n % (partitions * comm.size) != 0:
            raise MpiUsageError(
                f"{n} elements do not divide into {partitions} partitions x "
                f"{comm.size} ring chunks"
            )
        if not sendbuf.same_allocation(recvbuf):
            raise MpiUsageError("the fused collective is in-place (sendbuf is recvbuf)")
        spec = comm.rt.fabric.spec
        peers = [comm.world_rank_of(r) for r in range(comm.size)]
        peer_gpus = [comm.rt.world.devices[p].gpu_id for p in peers]
        if not all(
            spec.can_peer_map(a, b) for a in peer_gpus for b in peer_gpus
        ):
            raise MpiUsageError(
                "fused pallreduce requires a peer-mappable clique "
                "(all ranks NVLink/switch-reachable on one node); use "
                "the progression-engine collective otherwise"
            )
        self.comm = comm
        self.buf = recvbuf
        self.partitions = partitions
        self.op = op
        self.device = device
        self.schedule: Schedule = ring_allreduce_schedule(comm.rank, comm.size, op)
        self.part_elems = n // partitions
        self.chunk_elems = self.part_elems // comm.size

        # Shared clique state (stands for the rkey_ptr-mapped peer windows).
        registry = comm.rt.world._fused_cliques
        seq = getattr(comm, "_fused_seq", 0)
        comm._fused_seq = seq + 1
        key = (comm.comm_id, seq)
        clique = registry.get(key)
        if clique is None:
            clique = _FusedClique(
                self.engine, comm.size, partitions, self.schedule.n_steps
            )
            registry[key] = clique
        self.clique = clique
        clique.members[comm.rank] = self

        # Per-(partition, step) staging so fast peers can never overwrite.
        self.staging = Buffer.alloc(
            partitions * self.schedule.n_steps * self.chunk_elems,
            recvbuf.data.dtype, MemSpace.DEVICE,
            node=device.node, gpu=device.gpu_id, label="fused_rx",
        )
        self.user_ready: List[Flag] = []
        self.partition_done: List[Flag] = []
        self.done_count = Counter(self.engine)
        self._pready_called: List[bool] = []
        self.prepared_once = False

    # -- geometry ------------------------------------------------------------
    def _w_chunk(self, u: int, chunk: int) -> Buffer:
        return self.buf.view(u * self.part_elems + chunk * self.chunk_elems, self.chunk_elems)

    def _slot(self, u: int, step: int) -> Buffer:
        return self.staging.view(
            (u * self.schedule.n_steps + step) * self.chunk_elems, self.chunk_elems
        )

    # -- control flow -----------------------------------------------------------
    def start(self) -> Generator:
        yield self.engine.timeout(0.2 * us)
        self._begin_epoch()
        self.user_ready = [Flag(self.engine) for _ in range(self.partitions)]
        self.partition_done = [Flag(self.engine) for _ in range(self.partitions)]
        self._pready_called = [False] * self.partitions
        self.done_count.reset()
        epoch = self.epoch
        for u in range(self.partitions):
            self.engine.process(self._device_ring(u, epoch), name=f"fused.sm{u}")
        if self.preq is not None:
            self.preq.arm_epoch()

    def pbuf_prepare(self) -> Generator:
        """First call maps the peer windows (rkey_ptr); later calls are a
        clique-wide readiness rendezvous (device flags, no wire)."""
        if not self.active:
            raise MpiStateError("pbuf_prepare before MPI_Start")
        rt = self.rt
        yield rt.engine.timeout(rt.params.mpi_call_overhead)
        if not self.prepared_once:
            yield from rt.mca_partitioned_init()
            # One rkey_ptr map per peer window (cuIpcOpenMemHandle path).
            for _ in range(self.comm.size - 1):
                yield rt.engine.timeout(rt.params.ucp_rkey_ptr)
            self.prepared_once = True
        self.clique.join_count.add(1)
        yield self.clique.join_count.wait_for(self.comm.size * self.epoch)

    def pready(self, user_partition: int) -> Generator:
        yield self.engine.timeout(0.2 * us)
        self.issue_user_pready(user_partition)

    def issue_user_pready(self, u: int) -> None:
        if not self.active:
            raise MpiStateError("fused MPI_Pready outside an active epoch")
        if not 0 <= u < self.partitions:
            raise MpiUsageError(f"user partition {u} out of range")
        if self._pready_called[u]:
            raise MpiStateError(f"MPI_Pready called twice for user partition {u}")
        self._pready_called[u] = True
        self.user_ready[u].set()

    def parrived(self, u: int) -> bool:
        if not 0 <= u < self.partitions:
            raise MpiUsageError(f"user partition {u} out of range")
        return self.partition_done[u].is_set

    def wait(self, charge_overhead: bool = True) -> Generator:
        if charge_overhead:
            yield self.engine.timeout(self.rt.params.mpi_call_overhead)
        if not self.active:
            return self.status
        yield self.done_count.wait_for(self.partitions)
        yield self.engine.timeout(self.rt.params.progress_poll_latency)
        self._complete({"epoch": self.epoch})
        return self.status

    # -- the in-kernel ring, one coroutine per user partition --------------------
    def _device_ring(self, u: int, epoch: int) -> Generator:
        yield self.user_ready[u].wait()
        if self.epoch != epoch:
            return
        r = self.comm.rank
        P = self.comm.size
        right = (r + 1) % P
        flags = self.clique.flags(epoch)
        fabric = self.rt.fabric
        hbm_bw = self.device.cost.hbm_bw

        for i, step in enumerate(self.schedule.steps):
            yield self.engine.timeout(FUSED_STEP_OVERHEAD)
            # Direct SM stores into the right peer's mapped staging window.
            peer = self.clique.members[right]
            dst = peer._slot(u, i)
            put = fabric.dataplane.put(
                self._w_chunk(u, step.send_chunk), dst,
                traffic_class="pcoll", initiator="device", name=f"fused_u{u}s{i}",
            )
            flag = flags[right][u][i]
            put.add_callback(lambda _ev, flag=flag: flag.set())

            # Spin on my own device flag, then reduce/copy fused in-kernel.
            my_flag = flags[r][u][i]
            if not my_flag.is_set:
                yield my_flag.wait()
            slot = self._slot(u, i)
            target = self._w_chunk(u, step.recv_chunk)
            if step.op is not NOP:
                step.op.reduce_into(target.data, slot.data)
                yield self.engine.timeout(target.nbytes * 3 / hbm_bw)
            else:
                target.data[:] = slot.data
                yield self.engine.timeout(target.nbytes * 2 / hbm_bw)

        # Signal completion to the host (one flag store per partition).
        yield self.engine.process(
            host_flag_write_proc(self.device, 1, self.partition_done[u])
        )
        self.done_count.add(1)

    # -- device MPIX_Prequest (kernel blocks trigger user partitions) -----------------
    def prequest_create(
        self,
        device: "Device",
        grid: int,
        block: int,
        signal_mode: SignalMode = SignalMode.BLOCK,
    ) -> Generator:
        """Device request: blocks signal in *device memory* (no host hop —
        the ring engine lives on the GPU), so the trigger is just the
        global-memory counter crossing."""
        from repro.partitioned.prequest import CopyMode, Prequest

        if grid % self.partitions != 0:
            raise MpiUsageError(
                f"grid {grid} not divisible by {self.partitions} user partitions"
            )
        agg = AggregationSpec(grid, block, grid // self.partitions, signal_mode)
        cost = device.cost
        yield self.engine.timeout(cost.cuda_malloc_cost)
        yield self.engine.timeout(cost.memcpy_api_cost)
        preq = Prequest(
            self, device, agg, CopyMode.PROGRESSION_ENGINE,
            on_ready=self.issue_user_pready,
        )
        self.preq = preq
        if self.active:
            preq.arm_epoch()
        return preq

    def release(self) -> None:
        super().release()
        self.clique.members.clear()  # member <-> clique is a reference cycle


def fused_pallreduce_init(
    comm: "Communicator",
    sendbuf: Buffer,
    recvbuf: Buffer,
    partitions: int,
    op: MpiOp = SUM,
    device: Optional["Device"] = None,
) -> Generator:
    """MPIX_Pallreduce_init with the relaxed (fused device) semantics."""
    rt = comm.rt
    yield rt.engine.timeout(rt.params.mpi_call_overhead)
    req = FusedPallreduce(comm, sendbuf, recvbuf, partitions, op, device or rt.device)
    # Schedule construction + window allocation out of the device pool.
    from repro.pcoll.request import POOL_ALLOC_COST, SCHEDULE_STEP_COST

    yield rt.engine.timeout(SCHEDULE_STEP_COST * req.schedule.n_steps + POOL_ALLOC_COST)
    return req
