"""Device bindings: MPIX_Pready / MPIX_Parrived callable from kernels.

:func:`pready` is the exact per-block form for
:class:`~repro.cuda.kernel.BlockKernel` bodies — it returns a process
event the body may ``yield`` (wait) or post::

    def body(blk):
        yield blk.compute(work)
        yield pready(blk, preq)

and :func:`pready_wave` the bulk form for
:class:`~repro.cuda.kernel.UniformKernel` wave hooks (O(1) events per wave
regardless of grid size).

Both take the signal aggregation (paper Section IV-A4, Fig 3) from the
prequest, which fixed it at ``MPIX_Prequest_create``:

* ``THREAD`` — every thread stores a flag into pinned host memory
  (the MPI-ACX-style baseline): ``block_threads`` serialized C2C writes;
* ``WARP`` — ``__shfl_sync`` within each warp, lane 0 writes:
  ``ceil(block_threads/32)`` writes;
* ``BLOCK`` — ``__syncthreads()``, thread 0 writes once; with
  multi-block transport partitions, global-memory counters aggregate and
  only the threshold-crossing block writes to the host.

In Kernel-Copy mode the threshold-crossing block also performs the direct
NVLink store of the transport partition through the ``rkey_ptr``-mapped
remote buffer before signalling the host for the completion path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

from repro.cuda.devapi import DeviceCtx
from repro.cuda.kernel import Wave
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.partitioned.aggregation import SignalMode
from repro.partitioned.prequest import CopyMode, Prequest
from repro.san import record
from repro.sim import run as _run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioned.p2p import PrecvRequest


def _check_device_call(ctx: DeviceCtx, preq: Prequest) -> None:
    actor = ctx.actor
    if preq.freed:
        msg = "device MPIX_Pready on a freed MPIX_Prequest"
        record.guard("pready-freed", actor, msg)
        raise MpiStateError(msg)
    if not preq.sreq.active:
        msg = "device MPIX_Pready outside an active epoch"
        record.guard("pready-inactive", actor, msg)
        raise MpiStateError(msg)
    if ctx.device is not preq.device:
        msg = "MPIX_Prequest was created for a different device than the kernel runs on"
        record.guard("pready-wrong-device", actor, msg)
        raise MpiUsageError(msg)
    if ctx.block_threads != preq.agg.block_threads:
        raise MpiUsageError(
            f"kernel block size {ctx.block_threads} differs from the "
            f"MPIX_Prequest's {preq.agg.block_threads}"
        )


# --------------------------------------------------------------------------
# exact per-block binding (BlockKernel bodies)
# --------------------------------------------------------------------------

def pready(blk: DeviceCtx, preq: Prequest):
    """Device MPIX_Pready of one block, aggregated per ``preq.agg.signal_mode``.

    Thread mode signals at once; warp mode first pays the ``__shfl_sync``
    reduction, block mode a ``__syncthreads()``.  Then the block bumps its
    transport partition's global-memory counter and signals the host:
    every thread (or warp lane 0) of every block in thread/warp mode, the
    threshold-crossing block only in block mode and in Kernel-Copy mode,
    where that block first posts the partition's NVLink store.
    """
    _check_device_call(blk, preq)
    agg = preq.agg
    mode = agg.signal_mode
    tp = agg.tp_of_block(blk.block_id)
    if _run._RUN.bus is not None:
        record.mark("pready", actor=blk.actor, preq=record.ident(preq), epoch=preq.sreq.epoch,
                    block=blk.block_id, tp=tp, mode=mode.value)

    def proc() -> Generator:
        if mode is SignalMode.WARP:
            # Intra-warp shuffle reduction cost (cheap, on-SM).
            yield blk.device.params.syncthreads_cost / 2
        elif mode is SignalMode.BLOCK:
            yield blk.syncthreads()
        count = yield blk.atomic_add(preq.gmem_counters[tp])
        crossing = count == agg.gmem_threshold()
        if preq.mode is CopyMode.KERNEL_COPY:
            if crossing:
                # The crossing block stores the whole transport partition
                # over NVLink.  Stores are *posted*: the block proceeds to
                # raise the host completion signal immediately, and the
                # progression engine gates the flag-only completion on the
                # copy event.
                preq.kc_copy_events[tp] = blk.copy(preq.src_slice(tp), preq.mapped_slice(tp))
                yield blk.write_host_flags(1, preq.host_signals[tp])
        elif mode is SignalMode.BLOCK:
            if crossing:
                yield blk.write_host_flags(1, preq.host_signals[tp])
        else:
            # Thread/warp modes: every actor writes (no cross-block gating).
            writes = agg.host_writes_per_block()
            yield blk.write_host_flags(writes, preq.host_signals[tp], amount=writes)

    # Named pready_t, pready_w or pready_b after the signal mode.
    return blk.engine.process(proc(), name=f"pready_{mode.value[0]}.b{blk.block_id}")


def parrived_device(blk: DeviceCtx, rreq: "PrecvRequest", partition: int):
    """Device MPIX_Parrived: spin on the device-visible mirror flag.

    The receive-side completion flags live in pinned host memory; the
    device polls a global-memory mirror that the host refreshes (paper:
    "we issue a memory copy to the device in MPI_Wait as partitions
    arrive").  We charge that H2D visibility latency on the wait.
    """
    flag = rreq.arrived_flags[partition]

    def proc() -> Generator:
        if not flag.is_set:
            yield flag.wait()
        yield blk.device.fabric.spec.params.host_to_dev_flag
        # Import the sender's published history, then record the read this
        # call licenses (the partition's bytes are now safe to consume).
        if _run._RUN.bus is not None:
            record.acquire(blk.actor, ("arr", rreq.key, partition))
            record.access(
                blk.actor,
                rreq.buf.partition(partition, rreq.partitions),
                write=False,
                note="parrived",
            )
        return True

    return blk.engine.process(proc(), name=f"parrived.b{blk.block_id}")


# --------------------------------------------------------------------------
# bulk binding (UniformKernel wave hooks)
# --------------------------------------------------------------------------

def pready_wave(kctx: DeviceCtx, preq: Prequest, wave: Wave) -> None:
    """Apply a whole wave's MPIX_Pready effects in O(transport partitions).

    Equivalent to every block in ``wave.blocks`` executing the exact
    binding matching ``preq.agg.signal_mode``: global counters advance by
    the per-partition block counts, crossings trigger the kernel copy
    and/or host signal, and thread/warp modes charge their full write
    storms (serialized on the C2C link).
    """
    _check_device_call(kctx, preq)
    agg = preq.agg
    # Group the wave's blocks by transport partition (contiguous ranges).
    first_tp = agg.tp_of_block(wave.blocks[0])
    last_tp = agg.tp_of_block(wave.blocks[-1])
    for tp in range(first_tp, last_tp + 1):
        lo = max(wave.blocks[0], tp * agg.blocks_per_partition)
        hi = min(wave.blocks[-1] + 1, (tp + 1) * agg.blocks_per_partition)
        n_blocks = hi - lo
        if n_blocks <= 0:
            continue
        if _run._RUN.bus is not None:
            record.mark("pready", actor=kctx.actor, preq=record.ident(preq),
                        epoch=preq.sreq.epoch, blocks=(lo, hi), tp=tp,
                        mode=agg.signal_mode.value)
        counter = preq.gmem_counters[tp]
        before = counter.value
        kctx.atomic_add(counter, n_blocks)
        crossed = before < agg.gmem_threshold() <= before + n_blocks

        if preq.mode is CopyMode.KERNEL_COPY:
            if crossed:
                kctx.engine.process(
                    _kc_copy_then_signal(kctx, preq, tp), name=f"kc_tp{tp}"
                )
        elif agg.signal_mode is SignalMode.BLOCK:
            if crossed:
                kctx.write_host_flags(1, preq.host_signals[tp])
        else:
            per_block = agg.host_writes_per_block()
            kctx.write_host_flags(
                n_blocks * per_block, preq.host_signals[tp], amount=n_blocks * per_block
            )


def _kc_copy_then_signal(kctx: DeviceCtx, preq: Prequest, tp: int) -> Generator:
    # Post the direct store; signal the host concurrently (the progression
    # engine gates the completion flag on the copy event).
    preq.kc_copy_events[tp] = kctx.copy(preq.src_slice(tp), preq.mapped_slice(tp))
    yield kctx.write_host_flags(1, preq.host_signals[tp])


class PreadyWaveHook:
    """Reusable ``UniformKernel`` wave hook binding a kernel to MPIX_Pready.

    ``wave_hook=PreadyWaveHook(preq)`` behaves exactly like the bare
    ``lambda kc, wv: pready_wave(kc, preq, wv)`` — and additionally speaks
    the coalescing protocol of ``Device._exec_uniform`` (DESIGN.md §11):
    on an unobserved engine, runs of waves whose only effect is advancing
    a global-memory aggregation counter (which nothing waits on) collapse
    into one aggregate heap event per threshold crossing, carrying the
    whole partition range's block counts.  Heap traffic drops from
    O(waves x 4) to O(crossings) = O(transport partitions) while every
    externally observable action — counter state at any later read, host
    signal wire times, kernel-copy issue times — lands on bit-identical
    simulated timestamps.

    Only Kernel-Copy mode and BLOCK signal aggregation are coalescible;
    thread/warp signal storms write the C2C link on every wave, so
    :meth:`wave_batches` returns ``None`` and the executor falls back to
    the exact per-wave loop.
    """

    __slots__ = ("preq",)

    def __init__(self, preq: Prequest) -> None:
        self.preq = preq

    def __call__(self, kctx: DeviceCtx, wave: Wave) -> None:
        pready_wave(kctx, self.preq, wave)

    def wave_batches(self, kctx: DeviceCtx, plan):
        preq = self.preq
        if preq.mode is not CopyMode.KERNEL_COPY and preq.agg.signal_mode is not SignalMode.BLOCK:
            return None  # every wave signals the host: nothing to coalesce
        _check_device_call(kctx, preq)
        return self._batches(kctx, plan)

    def _batches(self, kctx: DeviceCtx, plan):
        """Yield ``(n_waves, t_end, fire)`` batches for the executor.

        Crossing detection replicates the exact path bit-for-bit,
        including its deferred-visibility semantics: the exact hook reads
        ``counter.value`` at wave end, but each wave's aggregate atomic
        lands ``gmem_atomic`` later (and, on an exact time tie, *after*
        the next wave's hook), so ``before`` may lag the true count.  We
        model that with a visibility queue instead of reading live
        counters, and apply the real ``Counter.add`` in bulk at each
        fire point — legal because the aggregation counters are
        kernel-internal (no ``wait_for`` waiters, nothing samples them
        between waves).
        """
        preq = self.preq
        agg = preq.agg
        bpp = agg.blocks_per_partition
        threshold = agg.gmem_threshold()
        counters = preq.gmem_counters
        ga = kctx.device.fabric.spec.params.gmem_atomic
        base: dict = {}       # tp -> counter value when first touched
        vis: dict = {}        # tp -> adds visible per exact-path semantics
        unapplied: dict = {}  # tp -> adds not yet pushed to the Counter
        pending = deque()     # (visible_time, wave_index, tp, n_blocks)
        t = kctx.now
        n_acc = 0
        for k, (blocks, dt) in enumerate(plan):
            t = t + dt
            n_acc += 1
            # Adds from wave j are visible to wave k's hook when their
            # landing time is strictly earlier, or equal with j <= k-2
            # (the tie-break: wave j's atomic timeout is enqueued after
            # wave j+1's wave timeout but before wave j+2's).
            while pending:
                vt, j, ptp, n = pending[0]
                if vt < t or (vt == t and j <= k - 2):
                    vis[ptp] = vis.get(ptp, 0) + n
                    pending.popleft()
                else:
                    break
            first_tp = blocks[0] // bpp
            last_tp = blocks[-1] // bpp
            crossed = []
            for tp in range(first_tp, last_tp + 1):
                lo = max(blocks[0], tp * bpp)
                hi = min(blocks[-1] + 1, (tp + 1) * bpp)
                n_blocks = hi - lo
                if n_blocks <= 0:
                    continue
                if tp not in base:
                    base[tp] = counters[tp].value
                before = base[tp] + vis.get(tp, 0)
                if before < threshold <= before + n_blocks:
                    crossed.append(tp)
                pending.append((t + ga, k, tp, n_blocks))
                unapplied[tp] = unapplied.get(tp, 0) + n_blocks
            if crossed:
                yield n_acc, t, self._make_fire(dict(unapplied), crossed)
                unapplied.clear()
                n_acc = 0
        if n_acc:
            fire = self._make_fire(dict(unapplied), []) if unapplied else None
            unapplied.clear()
            yield n_acc, t, fire

    def _make_fire(self, adds: dict, crossed: list):
        preq = self.preq

        def fire(kctx: DeviceCtx) -> None:
            counters = preq.gmem_counters
            for tp, n in adds.items():
                counters[tp].add(n)
            if preq.mode is CopyMode.KERNEL_COPY:
                for tp in crossed:
                    kctx.engine.process(
                        _kc_copy_then_signal(kctx, preq, tp), name=f"kc_tp{tp}"
                    )
            elif len(crossed) == 1:
                kctx.write_host_flags(1, preq.host_signals[crossed[0]])
            elif crossed:
                # One aggregate process replays the whole range's FIFO-
                # serialized crossing signals (one C2C store each).
                kctx.write_crossing_signals([preq.host_signals[tp] for tp in crossed])

        return fire
