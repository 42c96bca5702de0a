"""Partitioned point-to-point: host-side requests and wire protocol.

Implements the control flow of the paper's Fig 1 / Section IV-A:

1. ``psend_init``/``precv_init`` — create the (lazily-initialized)
   partitioned UCP resources, send/expect ``setup_t`` (non-blocking);
2. ``start`` — mark pending, reset internal flags, **no progress**;
3. ``pbuf_prepare`` — first call completes the rkey handshake (receiver
   registers buffers, replies with rkeys); later calls exchange the
   ready-to-receive signal;
4. ``pready(i)`` — ``ucp_put_nbx`` of partition *i* with a chained
   completion-flag put (UCX has no put-with-remote-completion);
5. ``parrived(i)`` — poll the receive-side completion flag;
6. ``wait`` — sender drains outstanding puts; receiver counts arrivals.

The requests are persistent: ``start`` re-arms them for a new epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.progress import AM_PART_RTR, AM_PART_SETUP, AM_PART_SETUP_RESP
from repro.mpi.requests import PersistentRequest
from repro.partitioned.setup import SETUP_BYTES, ChannelKey, ReadyToReceive, SetupResp, SetupT
from repro.san import record
from repro.sim import run as _run
from repro.sim.events import Event
from repro.sim.process import Delayed
from repro.sim.resources import Counter, Flag
from repro.ucx.memreg import mem_map, rkey_pack, rkey_unpack
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator

#: Host-side CPU cost of issuing one ucp_put_nbx (pready hot path).
PUT_ISSUE_COST = 0.65 * us
#: Host-side cost of packing the setup_t / prepopulating ucp params.
SETUP_PACK_COST = 1.6 * us
#: Host-side cost of MPI_Start (flag resets, no progress).
START_COST = 0.2 * us
#: Host-side cost of validating a ready-to-receive signal (later epochs).
RTR_PROCESS_COST = 1.0 * us
#: Progress-pass delay between a data put completing and its chained
#: completion-flag put being injected (Section IV-A4's two-put scheme).
FLAG_CHAIN_DELAY = 0.3 * us


def _part_ucp_first_touch(rt) -> Generator:
    """First partitioned call creates the component's UCP context/worker.

    The paper's component owns its own UCP resources (Section IV-A1); we
    charge their creation cost here but share the rank's worker for AM
    plumbing — the timing is what the reproduction depends on.
    """
    if not rt.part_ucp_ready:
        p = rt.params
        yield p.ucp_context_create + p.ucp_worker_create
        rt.part_ucp_ready = True


class PsendRequest(PersistentRequest):
    """Sender side of a partitioned channel."""

    def __init__(
        self, comm: "Communicator", buf: Buffer, partitions: int, dest: int, tag: int
    ) -> None:
        super().__init__(comm.rt, "psend")
        if partitions < 1:
            raise MpiUsageError("partitions must be >= 1")
        if len(buf.data) % partitions != 0:
            raise MpiUsageError(
                f"send buffer of {len(buf.data)} elements does not divide into "
                f"{partitions} partitions"
            )
        self.comm = comm
        self.buf = buf
        self.partitions = partitions
        self.dest = dest
        self.tag = tag
        self.key: ChannelKey = (comm.comm_id, comm.rank, dest, tag)
        self.elems_per_partition = len(buf.data) // partitions

        # UCP state (filled by the first pbuf_prepare).
        self.ep = None
        self.rkey_data = None
        self.rkey_flags = None
        self.arrived_sink = None
        self.prepared_once = False
        self.prepared_epoch = 0

        # Reserved FIFO slot for the setup response (posting order matters).
        self._resp_ev: Event = self.rt.part_matcher.get((AM_PART_SETUP_RESP,) + self.key)

        # Epoch state.
        self.pready_called: List[bool] = []
        self._puts_done = Counter(self.engine)
        self._puts_expected = 0

        # One-byte source for chained completion-flag puts.
        self._flag_src = Buffer.alloc(1, np.int8, MemSpace.PINNED, node=self.rt.node, fill=1)

    # -- MPI_Start -----------------------------------------------------------
    def start(self) -> Generator:
        yield START_COST
        self._begin_epoch()
        self.pready_called = [False] * self.partitions
        self._puts_done.reset()
        self._puts_expected = 0
        if _run._RUN.bus is not None:
            record.channel(
                "channel-send", self.buf, req=record.ident(self),
                partition_bytes=self.elems_per_partition * self.buf.itemsize,
                partitions=self.partitions,
            )
            record.mark("epoch-start", side="send", req=record.ident(self), epoch=self.epoch)
        if self.preq is not None:
            self.preq.arm_epoch()

    # -- MPIX_Pbuf_prepare --------------------------------------------------------
    def pbuf_prepare(self) -> Generator:
        if not self.active:
            raise MpiStateError("pbuf_prepare before MPI_Start")
        rt = self.rt
        yield rt.params.mpi_call_overhead
        yield from rt.mca_partitioned_init()
        if not self.prepared_once:
            resp: SetupResp = yield self._resp_ev
            if resp.partitions != self.partitions:
                raise MpiUsageError(
                    f"partition count mismatch: sender {self.partitions}, "
                    f"receiver {resp.partitions}"
                )
            self.ep = yield from rt.worker.ep_create(resp.worker_addr)
            self.rkey_data = yield from rkey_unpack(rt.worker, resp.rkey_data)
            self.rkey_flags = yield from rkey_unpack(rt.worker, resp.rkey_flags)
            self.arrived_sink = resp.arrived_sink
            yield SETUP_PACK_COST  # prepopulate put params
            self.prepared_once = True
        else:
            rtr: ReadyToReceive = yield rt.part_matcher.get((AM_PART_RTR,) + self.key)
            assert rtr.key == self.key
            # Validate the signal and refresh the put parameters.
            yield RTR_PROCESS_COST
        self.prepared_epoch = self.epoch

    # -- MPI_Pready (host binding) ----------------------------------------------------
    def pready(self, partition: int) -> Generator:
        """Host MPI_Pready: RMA-put the partition plus its chained flag."""
        yield PUT_ISSUE_COST
        self.issue_pready(partition)

    def issue_pready(
        self,
        partition: int,
        with_data: bool = True,
        src_override: Optional[Buffer] = None,
        actor=None,
    ) -> None:
        """Zero-time core (the progression engine charges its own costs).

        ``with_data=False`` is the Kernel-Copy completion path: the data
        already landed via the device's direct stores, only the
        receive-side completion flag needs raising.  ``src_override`` lets
        the partitioned-collective layer put a chunk of its working buffer
        through this wire partition (Section IV-B2's transport-partition
        mapping) instead of the channel buffer's own slice.  ``actor`` is
        the sanitizer identity of the issuer (defaults to this rank's host
        program; the progression engine passes its own).
        """
        if actor is None:
            actor = ("host", self.rt.world_rank)
        if not self.active:
            msg = "MPI_Pready outside an active epoch (missing MPI_Start?)"
            record.guard("pready-inactive", actor, msg)
            raise MpiStateError(msg)
        if self.prepared_epoch != self.epoch:
            msg = "MPI_Pready before MPIX_Pbuf_prepare in this epoch"
            record.guard("pready-inactive", actor, msg)
            raise MpiStateError(msg)
        if not 0 <= partition < self.partitions:
            raise MpiUsageError(
                f"partition {partition} out of range 0..{self.partitions - 1}"
            )
        if self.pready_called[partition]:
            raise MpiStateError(f"MPI_Pready called twice for partition {partition}")
        self.pready_called[partition] = True
        # Publish the issuer's history to whoever observes this partition's
        # arrival, and open the in-flight window the overwrite check tracks.
        if _run._RUN.bus is not None:
            record.mark("wire-pready", actor=actor, req=record.ident(self),
                        partition=partition, epoch=self.epoch)
            record.release(actor, ("arr", self.key, partition))

        if with_data:
            self._puts_expected += 2
            src = src_override if src_override is not None else self.buf.partition(
                partition, self.partitions
            )
            if len(src.data) != self.elems_per_partition:
                raise MpiUsageError(
                    f"pready source of {len(src.data)} elements does not match the "
                    f"partition size {self.elems_per_partition}"
                )
            data_put = self.ep.put_nbx(
                src,
                self.rkey_data,
                offset_elems=partition * self.elems_per_partition,
                callback=lambda: self._chain_flag_after_data(partition),
            )
            data_put.add_callback(lambda _ev: self._puts_done.add(1))
        else:
            self._puts_expected += 1
            self._chain_flag(partition)

    def _chain_flag_after_data(self, partition: int) -> None:
        """Data put completed: detect the completion, then chain the flag.

        UCX reports the data put's completion to a callback the worker
        runs on its next progress pass; that detection delay precedes the
        flag put's injection.
        """
        Delayed(self.engine, FLAG_CHAIN_DELAY, lambda: self._chain_flag(partition))

    def _chain_flag(self, partition: int) -> None:
        """The second put: raise the receive-side partition-arrived flag."""
        sink = self.arrived_sink
        flag_put = self.ep.put_nbx(
            self._flag_src,
            self.rkey_flags,
            offset_elems=partition,
            callback=lambda: sink(partition),
        )
        # The flag put is always the transport's last act for a partition,
        # in both copy modes: closing the send-overwrite window here covers
        # the progression-engine and kernel-copy paths alike.
        if _run._RUN.bus is not None:
            flag_put.add_callback(lambda _ev: record.mark(
                "tp-complete", req=record.ident(self), partition=partition))
        flag_put.add_callback(lambda _ev: self._puts_done.add(1))

    # -- MPI_Wait ------------------------------------------------------------------
    def wait(self, charge_overhead: bool = True) -> Generator:
        """Sender MPI_Wait: progress until all puts (data + flags) are done.

        ``charge_overhead=False`` is used by waitall-style aggregation
        (one call overhead for a whole request batch).
        """
        if charge_overhead:
            yield self.rt.params.mpi_call_overhead
        if not self.active:
            return self.status
        if not all(self.pready_called):
            missing = self.pready_called.count(False)
            # MPI_Wait blocks forever if partitions were never readied;
            # surface that as an error rather than hanging the simulation —
            # unless a device request is attached (its signals are still
            # in flight through the progression engine).
            if self.preq is None:
                raise MpiStateError(
                    f"MPI_Wait with {missing} partitions never marked ready"
                )
        yield self._puts_done.wait_for(self._expected_total())
        if _run._RUN.bus is not None:
            record.mark("epoch-complete", side="send", req=record.ident(self), epoch=self.epoch)
        self._complete({"epoch": self.epoch})
        return self.status

    def _expected_total(self) -> int:
        if self.preq is not None:
            # Every transport partition produces puts via the device path.
            return self.partitions * self.preq.puts_per_partition()
        return self.partitions * 2

    # -- MPIX_Prequest_create ------------------------------------------------------
    def prequest_create(self, device, agg=None, mode=None, **kw) -> Generator:
        from repro.partitioned.prequest import prequest_create

        return (yield from prequest_create(self, device, agg=agg, mode=mode, **kw))


class PrecvRequest(PersistentRequest):
    """Receiver side of a partitioned channel."""

    def __init__(
        self, comm: "Communicator", buf: Buffer, partitions: int, source: int, tag: int
    ) -> None:
        super().__init__(comm.rt, "precv")
        if partitions < 1:
            raise MpiUsageError("partitions must be >= 1")
        if len(buf.data) % partitions != 0:
            raise MpiUsageError(
                f"recv buffer of {len(buf.data)} elements does not divide into "
                f"{partitions} partitions"
            )
        self.comm = comm
        self.buf = buf
        self.partitions = partitions
        self.source = source
        self.tag = tag
        self.key: ChannelKey = (comm.comm_id, source, comm.rank, tag)

        self.prepared_once = False
        self.ep = None

        # Receive-side completion flags: pinned host memory + waiters.
        self.flags_buf = Buffer.alloc(
            partitions, np.int8, MemSpace.PINNED, node=self.rt.node, label="parrived_flags"
        )
        self.arrived_flags: List[Flag] = [Flag(self.engine) for _ in range(partitions)]
        self.arrived_count = Counter(self.engine)

        # Reserved FIFO slot for the sender's setup_t (posting order).
        self._setup_ev: Event = self.rt.part_matcher.get((AM_PART_SETUP,) + self.key)

    # -- MPI_Start -----------------------------------------------------------
    def start(self) -> Generator:
        yield START_COST
        self._begin_epoch()
        self.flags_buf.data[:] = 0
        for f in self.arrived_flags:
            f.clear()
        self.arrived_count.reset()
        if _run._RUN.bus is not None:
            record.channel(
                "channel-recv", self.buf, req=record.ident(self),
                partition_bytes=self.elems_per_partition * self.buf.itemsize,
                partitions=self.partitions,
            )
            record.mark("epoch-start", side="recv", req=record.ident(self), epoch=self.epoch)

    # -- MPIX_Pbuf_prepare ---------------------------------------------------------
    def pbuf_prepare(self) -> Generator:
        if not self.active:
            raise MpiStateError("pbuf_prepare before MPI_Start")
        rt = self.rt
        yield rt.params.mpi_call_overhead
        yield from rt.mca_partitioned_init()
        if not self.prepared_once:
            setup: SetupT = yield self._setup_ev
            if setup.partitions != self.partitions:
                # Nack the sender (it validates the response's partition
                # count) so both endpoints raise instead of one hanging.
                ep = yield from rt.worker.ep_create(setup.worker_addr)
                nack = SetupResp(self.key, None, None, rt.worker.address, self.partitions)
                yield ep.am_send(AM_PART_SETUP_RESP, (self.key, nack), nbytes=SETUP_BYTES)
                raise MpiUsageError(
                    f"partition count mismatch: sender {setup.partitions}, "
                    f"receiver {self.partitions}"
                )
            if setup.elems_per_partition * setup.itemsize != (
                self.elems_per_partition * self.buf.itemsize
            ):
                raise MpiUsageError("partition byte-size mismatch between endpoints")
            memh_data = yield from mem_map(rt.worker, self.buf)
            memh_flags = yield from mem_map(rt.worker, self.flags_buf)
            pk_data = yield from rkey_pack(rt.worker, memh_data)
            pk_flags = yield from rkey_pack(rt.worker, memh_flags)
            self.ep = yield from rt.worker.ep_create(setup.worker_addr)
            resp = SetupResp(
                self.key, pk_data, pk_flags, rt.worker.address,
                self.partitions, arrived_sink=self._partition_landed,
            )
            yield self.ep.am_send(
                AM_PART_SETUP_RESP, (self.key, resp), nbytes=SETUP_BYTES
            )
            self.prepared_once = True
        else:
            yield self.ep.am_send(
                AM_PART_RTR, (self.key, ReadyToReceive(self.key, self.epoch)),
                nbytes=SETUP_BYTES // 4,
            )

    @property
    def elems_per_partition(self) -> int:
        return len(self.buf.data) // self.partitions

    # -- arrival path -----------------------------------------------------------------
    def _partition_landed(self, partition: int) -> None:
        """The chained flag put landed: partition data is in our buffer."""
        if _run._RUN.bus is not None:
            record.mark("arrived", req=record.ident(self), partition=partition)
        self.flags_buf.data[partition] = 1
        self.arrived_flags[partition].set()
        self.arrived_count.add(1)

    def parrived(self, partition: int) -> bool:
        """Host MPI_Parrived: poll the receive-side completion flag."""
        if not 0 <= partition < self.partitions:
            raise MpiUsageError(
                f"partition {partition} out of range 0..{self.partitions - 1}"
            )
        return self.arrived_flags[partition].is_set

    # -- MPI_Wait -------------------------------------------------------------------
    def wait(self, charge_overhead: bool = True) -> Generator:
        if charge_overhead:
            yield self.rt.params.mpi_call_overhead
        if not self.active:
            return self.status
        yield self.arrived_count.wait_for(self.partitions)
        # The single progression thread notices the last flag by polling.
        yield self.rt.params.progress_poll_latency
        if _run._RUN.bus is not None:
            for p in range(self.partitions):
                record.acquire(("host", self.rt.world_rank), ("arr", self.key, p))
            record.mark("epoch-complete", side="recv", req=record.ident(self), epoch=self.epoch)
        self._complete({"epoch": self.epoch})
        return self.status


# --------------------------------------------------------------------------
# init entry points (called through Communicator)
# --------------------------------------------------------------------------

def psend_init(
    comm: "Communicator", buf: Buffer, partitions: int, dest: int, tag: int = 0
) -> Generator:
    """MPI_Psend_init: non-blocking, local; ships setup_t to the receiver."""
    rt = comm.rt
    yield rt.params.mpi_call_overhead
    yield from _part_ucp_first_touch(rt)
    req = PsendRequest(comm, buf, partitions, dest, tag)
    yield SETUP_PACK_COST
    ep = yield from rt.ep_to(comm, dest)
    setup = SetupT(
        req.key, partitions, req.elems_per_partition, buf.itemsize, rt.worker.address
    )
    yield ep.am_send(AM_PART_SETUP, (req.key, setup), nbytes=SETUP_BYTES)
    return req


def precv_init(
    comm: "Communicator", buf: Buffer, partitions: int, source: int, tag: int = 0
) -> Generator:
    """MPI_Precv_init: non-blocking, local; posts the setup_t receive."""
    rt = comm.rt
    yield rt.params.mpi_call_overhead
    yield from _part_ucp_first_touch(rt)
    req = PrecvRequest(comm, buf, partitions, source, tag)
    return req
