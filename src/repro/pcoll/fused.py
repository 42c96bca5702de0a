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
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.cuda.devapi import host_flag_write_proc
from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MpiOp, SUM
from repro.pcoll.request import POOL_ALLOC_COST, SCHEDULE_STEP_COST, PcollRequest
from repro.pcoll.ring import ring_allreduce_schedule, ring_step
from repro.sim.resources import Counter, Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator


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
        if comm.size < 2:
            raise MpiUsageError("fused pallreduce needs at least 2 ranks")
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

        # Shared clique state (stands for the rkey_ptr-mapped peer windows),
        # keyed like the host-progressed collectives' channel tags.
        registry = comm.rt.world._fused_cliques
        key = (comm.comm_id, self._tag)
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
        self.prepared_once = False

    def _slot(self, u: int, step: int) -> Buffer:
        return self.staging.view(
            (u * self.schedule.n_steps + step) * self.chunk_elems, self.chunk_elems
        )

    # -- control flow -----------------------------------------------------------
    def start(self) -> Generator:
        yield self.engine.timeout(self.START_COST)
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
        yield rt.engine.timeout(rt.params.mpi_call_overhead)
        if not self.prepared_once:
            yield from rt.mca_partitioned_init()
            # One rkey_ptr map per peer window (cuIpcOpenMemHandle path).
            for _ in range(self.comm.size - 1):
                yield rt.engine.timeout(rt.params.ucp_rkey_ptr)
            self.prepared_once = True
        self.clique.join_count.add(1)
        yield self.clique.join_count.wait_for(self.comm.size * self.epoch)

    # -- the in-kernel ring, one coroutine per user partition --------------------
    def _device_ring(self, u: int, epoch: int) -> Generator:
        yield self.user_ready[u].wait()
        if self.epoch != epoch:
            return
        r = self.comm.rank
        right = (r + 1) % self.comm.size
        peer = self.clique.members[right]
        flags = self.clique.flags(epoch)
        dataplane = self.rt.fabric.dataplane
        chunk = partial(self._w_chunk, u)
        for i, step in enumerate(self.schedule.steps):
            # Direct SM stores into the right peer's mapped staging window.
            yield from ring_step(
                self.device, dataplane, step, chunk,
                peer._slot(u, i), flags[right][u][i],
                self._slot(u, i), flags[r][u][i],
                "pcoll", f"fused_u{u}s{i}",
            )

        # Signal completion to the host (one flag store per partition).
        yield self.engine.process(
            host_flag_write_proc(self.device, 1, self.partition_done[u])
        )
        self.done_count.add(1)

    # -- device MPIX_Prequest (kernel blocks trigger user partitions) -----------------
    def _prequest_costs(self, cost):
        # Blocks signal in device memory, where the ring engine lives: no
        # pinned host flag page to allocate or map.
        return (cost.cuda_malloc_cost, cost.memcpy_api_cost)

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
    yield rt.engine.timeout(SCHEDULE_STEP_COST * req.schedule.n_steps + POOL_ALLOC_COST)
    return req
