"""Fused device-side partitioned allreduce — the paper's proposed extension.

Section VI-B argues the device ``MPIX_Pready`` binding should be relaxed
"to allow for computation and communication within the call as that would
allow the execution of an entire allreduce operation within a kernel",
closing the gap to NCCL.  This module implements exactly that proposal on
our substrate:

* the ring schedule executes *on the device*, one
  :func:`~repro.pcoll.ring.ring_step` per step — the step NCCL's ring
  kernel runs: chunk movement is intra-kernel NVLink stores through
  ``rkey_ptr``-mapped peer staging (no host puts, no copy engine),
  arrivals are device-memory flags, reductions run fused in the same
  kernel (no per-step launch + ``cudaStreamSynchronize``);
* its device state is NCCL's too: each init is one
  :class:`~repro.pcoll.ring.RingClique` in which every rank registers its
  staging window once, and each epoch is one
  :class:`~repro.pcoll.ring.RingBoard` of arrival flags;
* the host API surface is unchanged: :class:`FusedPallreduce` is a
  :class:`~repro.pcoll.request.PcollRequest` and inherits its
  ``pready(u)`` / ``parrived(u)`` / ``wait`` / ``prequest_create``; only
  ``start``, ``pbuf_prepare`` and the execution engine differ, which
  moved from the progression thread to the GPU;
* like the Kernel-Copy P2P mode, it requires an NVLink-reachable clique
  (all ranks on one node) — the constraint the paper ties to GB200-scale
  NVLink domains.

The ablation bench ``benchmarks/test_ablation_fused_collective.py`` shows
this recovers NCCL-class performance through the MPI-native API, which is
the paper's prediction.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Generator

from repro.cuda.devapi import HostFlagWrite
from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MpiOp
from repro.pcoll.request import POOL_ALLOC_COST, SCHEDULE_STEP_COST, PcollRequest
from repro.pcoll.ring import RingBoard, RingClique, ring_allreduce_schedule, ring_step
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator


class FusedPallreduce(PcollRequest):
    """Partitioned allreduce executed entirely on the device."""

    #: MPI_Start arms device flags only: there are no channels to start.
    START_COST = 0.2 * us
    #: The device-memory flag store that releases the in-kernel ring.
    PREADY_COST = 0.2 * us

    def __init__(
        self,
        comm: "Communicator",
        sendbuf: Buffer,
        recvbuf: Buffer,
        partitions: int,
        op: MpiOp,
        device: "Device",
    ) -> None:
        if not sendbuf.same_allocation(recvbuf):
            raise MpiUsageError("the fused collective is in-place (sendbuf is recvbuf)")
        spec = comm.rt.fabric.spec
        peer_gpus = [
            comm.rt.world.devices[comm.world_rank_of(r)].gpu_id for r in range(comm.size)
        ]
        if not all(spec.can_peer_map(a, b) for a in peer_gpus for b in peer_gpus):
            raise MpiUsageError(
                "fused pallreduce requires a peer-mappable clique "
                "(all ranks NVLink/switch-reachable on one node); use "
                "the progression-engine collective otherwise"
            )
        super().__init__(
            comm, sendbuf, recvbuf, partitions, op,
            ring_allreduce_schedule(comm.rank, comm.size, op), device,
            name="fused_pallreduce",
        )
        # The rkey_ptr-mapped peer windows: one clique per fused init.
        self.clique: RingClique = comm.rt.world.shared(
            comm, "fused_pallreduce", lambda: RingClique(self.engine, comm.size)
        )
        self.prepared_once = False

    def _init_channels(self) -> Generator:
        """No channels: build the schedule, then carve this rank's staging
        window (one slot per (partition, step)) out of the device pool and
        register it with the clique."""
        yield SCHEDULE_STEP_COST * self.schedule.n_steps + POOL_ALLOC_COST
        self.clique.windows[self.comm.rank] = Buffer.alloc(
            self.partitions * self.schedule.n_steps * self.chunk_elems,
            self.recvbuf.data.dtype, MemSpace.DEVICE,
            node=self.device.node, gpu=self.device.gpu_id, label="fused_rx",
        )

    def _board(self, epoch: int) -> RingBoard:
        return self.clique.board(
            epoch, self.partitions, self.schedule.n_steps, self.clique.windows
        )

    # -- control flow -----------------------------------------------------------
    def start(self) -> Generator:
        yield self.START_COST
        self._begin_user_epoch()
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
        yield rt.params.mpi_call_overhead
        if not self.prepared_once:
            yield from rt.mca_partitioned_init()
            # One rkey_ptr map per peer window (cuIpcOpenMemHandle path).
            for _ in range(self.comm.size - 1):
                yield rt.params.ucp_rkey_ptr
            self.prepared_once = True
        board = self._board(self.epoch)
        board.joined.add(1)
        yield board.joined.wait_for(self.comm.size)

    # -- the in-kernel ring, one coroutine per user partition --------------------
    def _device_ring(self, u: int, epoch: int) -> Generator:
        yield self.user_ready[u].wait()
        if self.epoch != epoch:
            return
        board = self._board(epoch)
        dataplane = self.rt.fabric.dataplane
        chunk = partial(self._w_chunk, u)
        for i, step in enumerate(self.schedule.steps):
            # Direct SM stores into the right peer's mapped staging window.
            yield from ring_step(
                self.device, dataplane, board, self.comm.rank, u, i, step, chunk,
                "pcoll", f"fused_u{u}s{i}",
            )
        self.clique.exit(epoch)

        # Signal completion to the host (one flag store per partition).
        yield HostFlagWrite(self.device, 1, self.partition_done[u])
        self.done_count.add(1)

    # -- device MPIX_Prequest (kernel blocks trigger user partitions) -----------------
    def _prequest_costs(self):
        # Blocks signal in device memory, where the ring engine lives: no
        # pinned host flag page to allocate or map.
        p = self.rt.params
        return (p.cuda_malloc_cost, p.memcpy_api_cost)
