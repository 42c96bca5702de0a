"""GPU-initiated MPIX_Pready: thread/warp/block bindings, both copy modes,
bulk wave path, MPIX_Prequest lifecycle."""

import numpy as np
import pytest

from repro.cuda.kernel import BlockKernel, UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE
from repro.hw.spec.catalog import SPECS
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.prequest import CopyMode
from repro.units import us

INTER = SPECS["gh200-2x1"]
WORK = WorkSpec.vector_add()


def _device_pair(mode, signal_mode=SignalMode.BLOCK, grid=4, block=256, tps=None,
                 config=ONE_NODE, epochs=1, uniform=False):
    """Standard device-initiated send test: returns receiver's final data."""
    tps = tps or grid
    n = grid * block
    snaps = []

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n)
            sreq = yield from comm.psend_init(sbuf, tps, dest=1, tag=0)
            preq = None
            for epoch in range(epochs):
                sbuf.data[:] = float(epoch + 1)
                yield from sreq.start()
                yield from sreq.pbuf_prepare()
                if preq is None:
                    agg = AggregationSpec(grid, block, grid // tps, signal_mode)
                    preq = yield from sreq.prequest_create(ctx.gpu, agg=agg, mode=mode)
                if uniform:
                    k = UniformKernel(
                        grid, block, WORK,
                        wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv),
                    )
                else:
                    def body(blk):
                        yield blk.compute(WORK)
                        yield pdev.pready(blk, preq)

                    k = BlockKernel(grid, block, body)
                yield from ctx.gpu.launch_h(k)
                yield from sreq.wait()
            return preq
        else:
            rbuf = ctx.gpu.alloc(n)
            rreq = yield from comm.precv_init(rbuf, tps, source=0, tag=0)
            for epoch in range(epochs):
                yield from rreq.start()
                yield from rreq.pbuf_prepare()
                yield from rreq.wait()
                snaps.append(rbuf.data.copy())
            return None

    World(config).run(main, nprocs=2)
    return snaps


@pytest.mark.parametrize("signal_mode", [SignalMode.THREAD, SignalMode.WARP, SignalMode.BLOCK])
def test_pe_mode_all_signal_modes(signal_mode):
    snaps = _device_pair(CopyMode.PROGRESSION_ENGINE, signal_mode)
    assert np.all(snaps[0] == 1.0)


def test_kernel_copy_mode():
    snaps = _device_pair(CopyMode.KERNEL_COPY)
    assert np.all(snaps[0] == 1.0)


def test_multi_block_aggregation_two_tps():
    snaps = _device_pair(CopyMode.PROGRESSION_ENGINE, grid=8, tps=2)
    assert np.all(snaps[0] == 1.0)


def test_single_transport_partition():
    snaps = _device_pair(CopyMode.KERNEL_COPY, grid=8, tps=1)
    assert np.all(snaps[0] == 1.0)


def test_uniform_kernel_bulk_path():
    snaps = _device_pair(CopyMode.PROGRESSION_ENGINE, grid=600, block=1024, tps=2,
                         uniform=True)
    assert np.all(snaps[0] == 1.0)


def test_uniform_kernel_bulk_kernel_copy():
    snaps = _device_pair(CopyMode.KERNEL_COPY, grid=600, block=1024, tps=2, uniform=True)
    assert np.all(snaps[0] == 1.0)


def test_multi_epoch_device_initiated():
    snaps = _device_pair(CopyMode.KERNEL_COPY, epochs=3)
    assert [s[0] for s in snaps] == [1.0, 2.0, 3.0]


def test_kernel_copy_rejected_inter_node():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(64)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            with pytest.raises(MpiUsageError, match="Kernel-Copy"):
                yield from sreq.prequest_create(
                    ctx.gpu, grid=1, block=64, mode=CopyMode.KERNEL_COPY
                )
            # finish the epoch via host pready
            yield from sreq.pready(0)
            yield from sreq.wait()
            return True
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(INTER).run(main, nprocs=2))


def test_prequest_create_before_prepare_rejected():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(64)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            with pytest.raises(MpiStateError, match="Pbuf_prepare"):
                yield from sreq.prequest_create(ctx.gpu, grid=1, block=64)
            yield from sreq.pbuf_prepare()
            yield from sreq.pready(0)
            yield from sreq.wait()
            return True
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_prequest_geometry_must_match_channel():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(64)
            sreq = yield from comm.psend_init(sbuf, 4, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            with pytest.raises(MpiUsageError, match="transport partitions"):
                agg = AggregationSpec(4, 16, 2)  # n_transport=2 != 4
                yield from sreq.prequest_create(ctx.gpu, agg=agg)
            for i in range(4):
                yield from sreq.pready(i)
            yield from sreq.wait()
            return True
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from comm.precv_init(rbuf, 4, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_prequest_free():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(64)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            preq = yield from sreq.prequest_create(ctx.gpu, grid=1, block=64)

            def body(blk):
                yield pdev.pready(blk, preq)

            yield from ctx.gpu.launch_h(BlockKernel(1, 64, body))
            yield from sreq.wait()
            yield from preq.free()
            assert preq.freed
            assert sreq.preq is None
            with pytest.raises(MpiStateError):
                preq.arm_epoch()
            return True
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_parrived_device_binding():
    observed = {}

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(64, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            yield from sreq.pready(0)
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(64)
            rreq = yield from comm.precv_init(rbuf, 1, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()

            def body(blk):
                arrived = yield pdev.parrived_device(blk, rreq, 0)
                observed["arrived"] = arrived
                observed["t"] = blk.now

            yield from ctx.gpu.launch_h(BlockKernel(1, 64, body))
            yield from rreq.wait()

    World(ONE_NODE).run(main, nprocs=2)
    assert observed["arrived"] is True


def test_fig3_cost_ordering_device_side():
    """Thread-level signalling must cost far more than block-level."""
    from repro.bench.p2p import measure_pready_cost

    t = measure_pready_cost(1024, SignalMode.THREAD)
    w = measure_pready_cost(1024, SignalMode.WARP)
    b = measure_pready_cost(1024, SignalMode.BLOCK)
    assert t > w > b
    assert 240 < t / b < 300
    assert 8 < w / b < 11


def test_release_stops_an_unsignalled_watcher():
    """Host-side Pready leaves the device request's watchers parked on
    host signals that never come; release() must settle them without
    running them and take their callbacks off the signals' events."""
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sreq = yield from comm.psend_init(ctx.gpu.alloc(64), 2, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            preq = yield from sreq.prequest_create(ctx.gpu, grid=2, block=32)
            for tp in range(2):
                yield from sreq.pready(tp)
            yield from sreq.wait()
            return preq
        rreq = yield from comm.precv_init(ctx.gpu.alloc(64), 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return None

    world = World(ONE_NODE)
    preq = world.run(main, nprocs=2)[0]
    watchers = list(preq._watchers)
    signals = [w._signal for w in watchers]
    assert len(watchers) == 2 and not any(w.triggered for w in watchers)
    assert all(len(sig.callbacks) == 1 for sig in signals)

    ran = []
    preq.on_ready = ran.append  # what a watcher that ran would end in
    preq.release()
    assert preq._watchers == [] and all(w.triggered for w in watchers)
    assert all(sig.callbacks == [] for sig in signals)
    for counter in preq.host_signals:  # a late signal wakes nobody
        counter.add(preq.agg.expected_host_signals())
    world.engine.run()
    assert ran == [] and all(sig.processed for sig in signals)
    world.close()
