"""Negative paths for the device-binding guards: the runtime raises AND the
sanitizer preserves each trip as a finding with actor/time provenance."""

import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import BlockKernel, UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.aggregation import SignalMode
from repro.san import Sanitizer

WORK = WorkSpec.vector_add()


def _recv(ctx, epochs=1):
    rbuf = ctx.gpu.alloc(64)
    rreq = yield from ctx.comm.precv_init(rbuf, 1, source=0, tag=0)
    for _ in range(epochs):
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()


def test_pready_on_freed_prequest():
    errors = []

    def main(ctx):
        if ctx.rank != 0:
            yield from _recv(ctx, epochs=2)
            return
        sbuf = ctx.gpu.alloc(64)
        sreq = yield from ctx.comm.psend_init(sbuf, 1, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        preq = yield from sreq.prequest_create(ctx.gpu, grid=1, block=64)

        def good(blk):
            yield pdev.pready(blk, preq)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, good))
        yield from sreq.wait()
        yield from preq.free()

        # Second epoch: the kernel still holds the freed device request.
        yield from sreq.start()
        yield from sreq.pbuf_prepare()

        def stale(blk):
            try:
                pdev.pready(blk, preq)
            except MpiStateError as exc:
                errors.append(exc)
            yield blk.compute(WORK)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, stale))
        yield from ctx.gpu.sync_h()
        yield from sreq.pready(0)  # finish the epoch host-side
        yield from sreq.wait()

    with Sanitizer(checks=["pready-freed"]) as san:
        World(ONE_NODE).run(main, nprocs=2)

    assert len(errors) == 1 and "freed" in str(errors[0])
    assert [f.check for f in san.findings] == ["pready-freed"]
    assert san.findings[0].actor[0] == "block"
    assert san.findings[0].time > 0.0


def test_pready_outside_active_epoch():
    errors = []

    def main(ctx):
        if ctx.rank != 0:
            yield from _recv(ctx)
            return
        sbuf = ctx.gpu.alloc(64)
        sreq = yield from ctx.comm.psend_init(sbuf, 1, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        preq = yield from sreq.prequest_create(ctx.gpu, grid=1, block=64)

        def good(blk):
            yield pdev.pready(blk, preq)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, good))
        yield from sreq.wait()

        # The epoch completed: a straggler kernel calls pready anyway.
        def late(blk):
            try:
                pdev.pready(blk, preq)
            except MpiStateError as exc:
                errors.append(exc)
            yield blk.compute(WORK)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, late))
        yield from ctx.gpu.sync_h()

    with Sanitizer(checks=["pready-inactive"]) as san:
        World(ONE_NODE).run(main, nprocs=2)

    assert len(errors) == 1 and "active epoch" in str(errors[0])
    assert [f.check for f in san.findings] == ["pready-inactive"]
    assert san.findings[0].actor[0] == "block"


def test_pready_from_wrong_device():
    errors = []

    def main(ctx):
        if ctx.rank != 0:
            yield from _recv(ctx)
            return
        sbuf = ctx.gpu.alloc(64)
        sreq = yield from ctx.comm.psend_init(sbuf, 1, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        preq = yield from sreq.prequest_create(ctx.gpu, grid=1, block=64)
        other = Device(ctx.gpu.fabric, ctx.gpu.gpu_id)

        def misplaced(blk):
            try:
                pdev.pready(blk, preq)
            except MpiUsageError as exc:
                errors.append(exc)
            yield blk.compute(WORK)

        yield from other.launch_h(BlockKernel(1, 64, misplaced))
        yield from other.sync_h()

        def good(blk):
            yield pdev.pready(blk, preq)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, good))
        yield from sreq.wait()

    with Sanitizer(checks=["pready-wrong-device"]) as san:
        World(ONE_NODE).run(main, nprocs=2)

    assert len(errors) == 1 and "different device" in str(errors[0])
    assert [f.check for f in san.findings] == ["pready-wrong-device"]
    assert san.findings[0].actor[0] == "block"


def test_pready_from_wrong_block_size():
    """A kernel whose blocks differ in size from the prequest's is refused
    on both device paths: a block body sees the error at the call, a wave
    hook's error reaches the host at the next synchronize."""
    errors = []

    def main(ctx):
        if ctx.rank != 0:
            yield from _recv(ctx)
            return
        sbuf = ctx.gpu.alloc(64)
        sreq = yield from ctx.comm.psend_init(sbuf, 1, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        preq = yield from sreq.prequest_create(
            ctx.gpu, grid=1, block=64, signal_mode=SignalMode.THREAD
        )

        def narrow(blk):
            try:
                pdev.pready(blk, preq)
            except MpiUsageError as exc:
                errors.append(exc)
            yield blk.compute(WORK)

        yield from ctx.gpu.launch_h(BlockKernel(1, 32, narrow))
        yield from ctx.gpu.sync_h()

        hook = pdev.PreadyWaveHook(preq)
        yield from ctx.gpu.launch_h(UniformKernel(1, 32, WORK, wave_hook=hook))
        with pytest.raises(MpiUsageError) as raised:
            yield from ctx.gpu.sync_h()
        errors.append(raised.value)

        def good(blk):
            yield pdev.pready(blk, preq)

        yield from ctx.gpu.launch_h(BlockKernel(1, 64, good))
        yield from sreq.wait()

    World(ONE_NODE).run(main, nprocs=2)

    assert len(errors) == 2
    assert all("block size" in str(exc) for exc in errors)


def test_host_pready_before_start_guarded():
    def main(ctx):
        if ctx.rank != 0:
            yield from _recv(ctx)
            return
        sbuf = ctx.gpu.alloc(64)
        sreq = yield from ctx.comm.psend_init(sbuf, 1, dest=1, tag=0)
        with pytest.raises(MpiStateError, match="active epoch"):
            yield from sreq.pready(0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        yield from sreq.pready(0)
        yield from sreq.wait()

    with Sanitizer(checks=["pready-inactive"]) as san:
        World(ONE_NODE).run(main, nprocs=2)

    assert [f.check for f in san.findings] == ["pready-inactive"]
    assert san.findings[0].actor == ("host", 0)
