"""MPIX_Prequest: the device-resident partitioned request.

Paper Section IV-A3: ``MPIX_Prequest_create`` moves the minimal information
a GPU needs into device global memory — the copy mode, the aggregation
threshold, the per-transport-partition counters — and allocates the pinned
host flags the progression engine watches.  It is *blocking* so the first
device-side ``MPIX_Pready`` always sees a valid request; its cost
(Table I: 110.7 us) is dominated by the cudaMalloc/cudaMallocHost pair,
flag registration, and the host-to-device copy, plus ``ucp_rkey_ptr`` when
the Kernel-Copy mode maps the remote buffer.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, Generator, List, Optional

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.p2p import PUT_ISSUE_COST, PsendRequest
from repro.san import record
from repro.sim import run as _run
from repro.sim.events import Event
from repro.sim.process import Chain
from repro.sim.resources import Counter
from repro.ucx.memreg import rkey_ptr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device


class CopyMode(enum.Enum):
    """How device-side Pready moves the data (Section IV-A4)."""

    PROGRESSION_ENGINE = "pe"      # device signals; host issues ucp_put_nbx
    KERNEL_COPY = "kernel_copy"    # device stores via rkey_ptr; host sends completion


class Prequest:
    """Device-resident request state for one partitioned send channel."""

    def __init__(
        self,
        sreq: PsendRequest,
        device: "Device",
        agg: AggregationSpec,
        mode: CopyMode,
        on_ready=None,
    ) -> None:
        """``on_ready(tp)`` overrides what the progression engine does when
        a transport partition's signals complete; the default issues the
        channel's host ``MPI_Pready``.  Partitioned collectives pass their
        user-partition trigger here (paper Section IV-B2)."""
        self.sreq = sreq
        self.device = device
        self.agg = agg
        self.mode = mode
        self.on_ready = on_ready
        self.engine = sreq.engine
        self.rt = sreq.rt

        # Global-memory aggregation counters, one per transport partition.
        self.gmem_counters: List[Counter] = [
            Counter(self.engine) for _ in range(agg.n_transport)
        ]
        # Pinned-host signal counters the progression engine watches.
        self.host_signals: List[Counter] = [
            Counter(self.engine) for _ in range(agg.n_transport)
        ]
        # Kernel-Copy: device-mapped view of the remote receive buffer,
        # plus the in-flight direct-store events (the completion-flag put
        # is gated on the matching copy so the receiver can never observe
        # the flag before the data).
        self.mapped_remote: Optional[Buffer] = None
        self.kc_copy_events: dict = {}
        self._watchers: List = []
        self.freed = False

    def puts_per_partition(self) -> int:
        """Puts per transport partition: data + flag, or the flag alone (Kernel-Copy)."""
        return 2 if self.mode is CopyMode.PROGRESSION_ENGINE else 1

    # -- geometry helpers -------------------------------------------------------
    def src_slice(self, tp: int) -> Buffer:
        """Sender-side data of transport partition ``tp``."""
        return self.sreq.buf.partition(tp, self.agg.n_transport)

    def mapped_slice(self, tp: int) -> Buffer:
        if self.mapped_remote is None:
            raise MpiStateError("kernel-copy slice requested but rkey_ptr not mapped")
        return self.mapped_remote.partition(tp, self.agg.n_transport)

    # -- epoch management ------------------------------------------------------------
    def arm_epoch(self) -> None:
        """Reset counters and start progression watchers for this epoch.

        Called by ``MPI_Start`` (and once at create time if the channel is
        already started): re-arms the persistent channel exactly like the
        paper's flag reset.
        """
        if self.freed:
            raise MpiStateError("arm_epoch on a freed MPIX_Prequest")
        epoch = self.sreq.epoch
        self.kc_copy_events.clear()
        for tp in range(self.agg.n_transport):
            self.gmem_counters[tp].reset()
            self.host_signals[tp].reset()
        if _run._RUN.bus is not None:
            record.mark("epoch-arm", req=record.ident(self.sreq), preq=record.ident(self),
                        epoch=epoch)
        # An earlier epoch's watcher that was never signalled (host-side
        # Pready) stays parked; keep it listed so release() can stop it.
        self._watchers = [w for w in self._watchers if not w._triggered]
        self._watchers += [_Watch(self, tp, epoch) for tp in range(self.agg.n_transport)]

    # -- free ------------------------------------------------------------------------
    def free(self) -> Generator:
        """MPIX_Prequest_free: release device + pinned host allocations."""
        yield self.device.params.memcpy_api_cost  # cudaFree / cudaFreeHost
        self.freed = True
        if _run._RUN.bus is not None:
            record.mark("preq-free", preq=record.ident(self), req=record.ident(self.sreq))
        self.sreq.preq = None

    def release(self) -> None:
        """Finalize-time teardown (see PersistentRequest.release).

        Kills the watchers still parked (an epoch the device never
        signalled leaves them waiting forever) and detaches from the
        owning request.
        """
        for w in self._watchers:  # settle each unrun, off its signal's callbacks
            if w._signal is not None:
                w._signal.callbacks.remove(w._run_callbacks)
            w._triggered = True
        self._watchers = []
        self.sreq.preq = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Prequest mode={self.mode.value} tps={self.agg.n_transport} "
            f"signal={self.agg.signal_mode.value}>"
        )


class _Watch(Chain):
    """Progression-engine watcher for one transport partition: wait for its
    host signals, then dispatch the internal ``MPI_Pready`` and wait.  That
    issue is a ``_Watch`` too (``epoch`` None, from stage 4); a Kernel-Copy
    flag-only completion in it first waits for a copy not yet fired.
    """

    __slots__ = ("preq", "tp", "epoch", "_signal")

    def __init__(self, preq: Prequest, tp: int, epoch: Optional[int] = None) -> None:
        self.preq, self.tp, self.epoch, self._signal = preq, tp, epoch, None
        Chain.__init__(self, preq.engine)
        if epoch is None:
            self._stage = 4

    def _step(self, stage: int, ev: Optional[Event]) -> None:
        preq, tp = self.preq, self.tp
        if stage == 0:
            self._signal = preq.host_signals[tp].wait_for(preq.agg.expected_host_signals())
            self._signal.callbacks.append(self._run_callbacks)
        elif stage == 1:
            self._signal = None
            # The PE observes the device's released signal history (sync edge).
            if _run._RUN.bus is not None:
                record.acquire(("pe", preq.rt.world_rank), ("sig", preq.host_signals[tp]))
            if preq.freed or preq.sreq.epoch != self.epoch:
                return self.succeed()  # stale watcher from a previous epoch
            # Polling delay before the progression thread notices the signal.
            self._sleep(preq.rt.params.progress_poll_latency)
        elif stage == 2:
            preq.rt.progress.dispatch(
                partial(_Watch, preq, tp), name=f"pready_tp{tp}"
            ).callbacks.append(self._run_callbacks)
        elif stage == 3:  # the dispatch returned
            self.succeed()
        elif stage == 4:  # the dispatched issue
            self._sleep(PUT_ISSUE_COST)
        else:
            pe = ("pe", preq.rt.world_rank)
            if preq.on_ready is not None:
                preq.on_ready(tp)
            elif preq.mode is not CopyMode.KERNEL_COPY:
                preq.sreq.issue_pready(tp, with_data=True, actor=pe)
            else:
                copy_ev = preq.kc_copy_events.get(tp) if ev is None else ev
                if copy_ev is not None:
                    if not copy_ev._triggered:
                        return copy_ev.callbacks.append(self._run_callbacks)
                    if _run._RUN.bus is not None:
                        record.acquire(pe, ("copydone", copy_ev))
                preq.sreq.issue_pready(tp, with_data=False, actor=pe)
            self.succeed()


def prequest_create(
    sreq: PsendRequest,
    device: "Device",
    agg: Optional[AggregationSpec] = None,
    mode: Optional[CopyMode] = None,
    grid: Optional[int] = None,
    block: Optional[int] = None,
    blocks_per_partition: Optional[int] = None,
    signal_mode: SignalMode = SignalMode.BLOCK,
) -> Generator:
    """MPIX_Prequest_create (blocking).

    Either pass a full :class:`AggregationSpec` via ``agg`` or the kernel
    geometry (``grid``, ``block``) and let the spec be derived with
    ``blocks_per_partition`` defaulting to ``grid / sreq.partitions``.
    The spec's transport-partition count must equal the channel's wire
    partition count.
    """
    mode = mode or CopyMode.PROGRESSION_ENGINE
    if agg is None:
        if grid is None or block is None:
            raise MpiUsageError("prequest_create needs either agg or grid+block")
        if blocks_per_partition is None:
            if grid % sreq.partitions != 0:
                raise MpiUsageError(
                    f"grid {grid} not divisible by wire partitions {sreq.partitions}"
                )
            blocks_per_partition = grid // sreq.partitions
        agg = AggregationSpec(grid, block, blocks_per_partition, signal_mode)
    if agg.n_transport != sreq.partitions:
        raise MpiUsageError(
            f"aggregation produces {agg.n_transport} transport partitions but the "
            f"channel was initialized with {sreq.partitions}"
        )
    if not sreq.prepared_once:
        raise MpiStateError(
            "MPIX_Prequest_create before the first MPIX_Pbuf_prepare: remote "
            "rkeys are not available yet"
        )
    if mode is CopyMode.KERNEL_COPY:
        target = sreq.rkey_data.target
        if target.gpu is None or not sreq.rt.fabric.spec.can_peer_map(device.gpu_id, target.gpu):
            msg = (
                "Kernel-Copy mode requires an IPC-mappable (P2P-reachable) "
                "device-memory peer; use PROGRESSION_ENGINE otherwise"
            )
            record.guard("ipc-misuse", ("host", sreq.rt.world_rank), msg)
            raise MpiUsageError(msg)

    rt = sreq.rt
    p = rt.params
    # cudaMalloc for the device request + counters.
    yield p.cuda_malloc_cost
    # cudaMallocHost for the pinned progression flags.
    yield p.cuda_host_alloc_cost
    # Register the flag region so the progression engine / NIC can see it.
    yield p.ucp_mem_map_per_call
    preq = Prequest(sreq, device, agg, mode)
    if mode is CopyMode.KERNEL_COPY:
        # Resolve the device-mapped remote pointer (cuda_ipc rkey_ptr).
        preq.mapped_remote = yield from rkey_ptr(rt.worker, sreq.rkey_data, device.gpu_id)
    # Populate the host-side staging struct and copy it to the device.
    yield p.memcpy_api_cost
    staging = Buffer.alloc(64, np.int8, MemSpace.PINNED, node=rt.node)
    dev_struct = Buffer.alloc(64, np.int8, MemSpace.DEVICE, node=device.node, gpu=device.gpu_id)
    yield rt.fabric.dataplane.put(
        staging, dev_struct, traffic_class="part", name="preq_h2d"
    )

    sreq.preq = preq
    if sreq.active:
        preq.arm_epoch()
    return preq
