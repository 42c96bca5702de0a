"""Partitioned point-to-point: host bindings, epochs, protocol state."""

import numpy as np
import pytest

from repro.hw.params import ONE_NODE
from repro.hw.spec.catalog import SPECS
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.world import World
from repro.units import us

INTER = SPECS["gh200-2x1"]


def _pair(sender_body, receiver_body):
    """Run a 2-rank job with distinct sender/receiver generators."""

    def main(ctx):
        if ctx.rank == 0:
            return (yield from sender_body(ctx))
        return (yield from receiver_body(ctx))

    return main


def test_host_pready_full_epoch():
    P = 4

    def sender(ctx):
        sbuf = ctx.gpu.alloc(64, fill=6.0)
        sreq = yield from ctx.comm.psend_init(sbuf, P, dest=1, tag=2)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        for i in range(P):
            yield from sreq.pready(i)
        yield from sreq.wait()
        assert sreq.done
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(64)
        rreq = yield from ctx.comm.precv_init(rbuf, P, source=0, tag=2)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        assert np.all(rbuf.data == 6.0)
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_parrived_tracks_partitions_individually():
    P = 4
    observed = {}

    def sender(ctx):
        sbuf = ctx.gpu.alloc(4 * P, fill=1.0)
        sreq = yield from ctx.comm.psend_init(sbuf, P, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        yield from sreq.pready(2)  # only partition 2 first
        yield ctx.engine.timeout(50 * us)
        for i in (0, 1, 3):
            yield from sreq.pready(i)
        yield from sreq.wait()

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(4 * P)
        rreq = yield from ctx.comm.precv_init(rbuf, P, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield ctx.engine.timeout(30 * us)
        observed["early"] = [rreq.parrived(i) for i in range(P)]
        yield from rreq.wait()
        observed["late"] = [rreq.parrived(i) for i in range(P)]

    World(ONE_NODE).run(_pair(sender, receiver), nprocs=2)
    assert observed["early"] == [False, False, True, False]
    assert observed["late"] == [True] * 4


def test_persistent_reuse_three_epochs():
    P, N = 2, 32
    results = []

    def sender(ctx):
        sbuf = ctx.gpu.alloc(N)
        sreq = yield from ctx.comm.psend_init(sbuf, P, dest=1, tag=0)
        for epoch in range(3):
            sbuf.data[:] = float(epoch)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            for i in range(P):
                yield from sreq.pready(i)
            yield from sreq.wait()

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(N)
        rreq = yield from ctx.comm.precv_init(rbuf, P, source=0, tag=0)
        for epoch in range(3):
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()
            results.append(rbuf.data.copy())

    World(ONE_NODE).run(_pair(sender, receiver), nprocs=2)
    for epoch, snap in enumerate(results):
        assert np.all(snap == float(epoch))


def test_inter_node_partitioned():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(1024, fill=2.5)
        sreq = yield from ctx.comm.psend_init(sbuf, 8, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        for i in range(8):
            yield from sreq.pready(i)
        yield from sreq.wait()

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(1024)
        rreq = yield from ctx.comm.precv_init(rbuf, 8, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        assert np.all(rbuf.data == 2.5)

    World(INTER).run(_pair(sender, receiver), nprocs=2)


def test_multiple_channels_same_peer_matched_in_order():
    """Two channels with identical (comm, ranks, tag) pair by init order."""
    out = {}

    def sender(ctx):
        b1 = ctx.gpu.alloc(8, fill=1.0)
        b2 = ctx.gpu.alloc(8, fill=2.0)
        s1 = yield from ctx.comm.psend_init(b1, 1, dest=1, tag=5)
        s2 = yield from ctx.comm.psend_init(b2, 1, dest=1, tag=5)
        for s in (s1, s2):
            yield from s.start()
        # Prepare concurrently to avoid ordering deadlock.
        from repro.sim.events import AllOf

        preps = [ctx.engine.process(s.pbuf_prepare()) for s in (s1, s2)]
        yield AllOf(ctx.engine, preps)
        yield from s1.pready(0)
        yield from s2.pready(0)
        yield from s1.wait()
        yield from s2.wait()

    def receiver(ctx):
        r1buf = ctx.gpu.alloc(8)
        r2buf = ctx.gpu.alloc(8)
        r1 = yield from ctx.comm.precv_init(r1buf, 1, source=0, tag=5)
        r2 = yield from ctx.comm.precv_init(r2buf, 1, source=0, tag=5)
        for r in (r1, r2):
            yield from r.start()
        from repro.sim.events import AllOf

        preps = [ctx.engine.process(r.pbuf_prepare()) for r in (r1, r2)]
        yield AllOf(ctx.engine, preps)
        yield from r1.wait()
        yield from r2.wait()
        out["r1"] = r1buf.data.copy()
        out["r2"] = r2buf.data.copy()

    World(ONE_NODE).run(_pair(sender, receiver), nprocs=2)
    assert np.all(out["r1"] == 1.0)
    assert np.all(out["r2"] == 2.0)


# ------------------------------------------------------------------
# error semantics (DESIGN.md section 7)
# ------------------------------------------------------------------

def test_pready_before_start_rejected():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        with pytest.raises(MpiStateError):
            sreq.issue_pready(0)
        # clean up: run the epoch properly
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        for i in range(2):
            yield from sreq.pready(i)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_pready_before_prepare_rejected():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        with pytest.raises(MpiStateError, match="Pbuf_prepare"):
            sreq.issue_pready(0)
        yield from sreq.pbuf_prepare()
        for i in range(2):
            yield from sreq.pready(i)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_double_pready_rejected():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        yield from sreq.pready(0)
        with pytest.raises(MpiStateError, match="twice"):
            yield from sreq.pready(0)
        yield from sreq.pready(1)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_partition_index_out_of_range():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        with pytest.raises(MpiUsageError):
            yield from sreq.pready(2)
        for i in range(2):
            yield from sreq.pready(i)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_indivisible_buffer_rejected():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.psend_init(ctx.gpu.alloc(10), 3, dest=1)
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.precv_init(ctx.gpu.alloc(10), 3, source=1)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_partition_count_mismatch_detected():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        with pytest.raises(MpiUsageError, match="mismatch"):
            yield from sreq.pbuf_prepare()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 4, source=0, tag=0)
        yield from rreq.start()
        with pytest.raises(MpiUsageError, match="mismatch"):
            yield from rreq.pbuf_prepare()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_wait_without_pready_errors_not_hangs():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        yield from sreq.pbuf_prepare()
        with pytest.raises(MpiStateError, match="never marked ready"):
            yield from sreq.wait()
        for i in range(2):
            yield from sreq.pready(i)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_start_while_active_rejected():
    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        yield from sreq.start()
        with pytest.raises(MpiStateError, match="active"):
            yield from sreq.start()
        yield from sreq.pbuf_prepare()
        for i in range(2):
            yield from sreq.pready(i)
        yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        return True

    assert all(World(ONE_NODE).run(_pair(sender, receiver), nprocs=2))


def test_pbuf_prepare_first_call_carries_mca_cost():
    times = {}

    def sender(ctx):
        sbuf = ctx.gpu.alloc(8)
        sreq = yield from ctx.comm.psend_init(sbuf, 2, dest=1, tag=0)
        for epoch in range(2):
            yield from sreq.start()
            t0 = ctx.now
            yield from sreq.pbuf_prepare()
            times[epoch] = ctx.now - t0
            for i in range(2):
                yield from sreq.pready(i)
            yield from sreq.wait()
        return True

    def receiver(ctx):
        rbuf = ctx.gpu.alloc(8)
        rreq = yield from ctx.comm.precv_init(rbuf, 2, source=0, tag=0)
        for epoch in range(2):
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()
        return True

    World(ONE_NODE).run(_pair(sender, receiver), nprocs=2)
    assert times[0] > 150 * us          # MCA init + rkey handshake
    assert times[1] < 10 * us           # just the ready-to-receive signal
