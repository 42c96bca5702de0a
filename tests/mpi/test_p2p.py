"""Point-to-point: eager/rendezvous, blocking/nonblocking, ordering."""

import numpy as np
import pytest

from repro.hw.memory import MemSpace
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.hw.spec.catalog import SPECS
from repro.mpi.errors import MpiMatchError, MpiUsageError
from repro.mpi.matching import ANY
from repro.mpi.requests import waitall
from repro.mpi.world import World


def test_eager_host_send_recv():
    def main(ctx):
        comm = ctx.comm
        buf = ctx.gpu.alloc_pinned(8, fill=float(ctx.rank))
        if ctx.rank == 0:
            yield from comm.send(buf, dest=1, tag=1)
            return "sent"
        rbuf = ctx.gpu.alloc_pinned(8)
        st = yield from comm.recv(rbuf, source=0, tag=1)
        assert np.all(rbuf.data == 0.0)
        return st["protocol"]

    res = World(ONE_NODE).run(main, nprocs=2)
    assert res[1] == "eager"


def test_rendezvous_for_device_buffers():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(256, fill=1.5)
            yield from comm.send(sbuf, dest=1, tag=0)
        else:
            rbuf = ctx.gpu.alloc(256)
            st = yield from comm.recv(rbuf, source=0, tag=0)
            assert np.all(rbuf.data == 1.5)
            return st["protocol"]

    assert World(ONE_NODE).run(main, nprocs=2)[1] == "rndv"


def test_rendezvous_for_large_host_buffers():
    def main(ctx):
        comm = ctx.comm
        n = 4096  # 32 KiB > eager threshold
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(n, fill=2.0), dest=1)
        else:
            rbuf = ctx.gpu.alloc_pinned(n)
            st = yield from comm.recv(rbuf, source=0)
            assert np.all(rbuf.data == 2.0)
            return st["protocol"]

    assert World(ONE_NODE).run(main, nprocs=2)[1] == "rndv"


def test_unexpected_message_buffered():
    """Send completes (eager) before the receive is even posted."""

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(4, fill=9.0), dest=1, tag=3)
        else:
            yield ctx.engine.timeout(50e-6)  # post late
            rbuf = ctx.gpu.alloc_pinned(4)
            yield from comm.recv(rbuf, source=0, tag=3)
            assert np.all(rbuf.data == 9.0)

    World(ONE_NODE).run(main, nprocs=2)


def test_any_source_any_tag():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(4, fill=5.0), dest=1, tag=42)
        else:
            rbuf = ctx.gpu.alloc_pinned(4)
            st = yield from comm.recv(rbuf, source=ANY, tag=ANY)
            assert st["source"] == 0 and st["tag"] == 42

    World(ONE_NODE).run(main, nprocs=2)


def test_non_overtaking_order():
    """Two same-envelope messages arrive in send order."""

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for v in (1.0, 2.0):
                yield from comm.send(ctx.gpu.alloc_pinned(4, fill=v), dest=1, tag=0)
        else:
            vals = []
            for _ in range(2):
                rbuf = ctx.gpu.alloc_pinned(4)
                yield from comm.recv(rbuf, source=0, tag=0)
                vals.append(rbuf.data[0])
            assert vals == [1.0, 2.0]

    World(ONE_NODE).run(main, nprocs=2)


def test_truncation_error():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            yield from comm.send(ctx.gpu.alloc_pinned(100, fill=1.0), dest=1)
        else:
            with pytest.raises(MpiMatchError, match="truncation"):
                rbuf = ctx.gpu.alloc_pinned(10)
                yield from comm.recv(rbuf, source=0)
            return "caught"
        return None

    assert World(ONE_NODE).run(main, nprocs=2)[1] == "caught"


def test_isend_irecv_waitall():
    def main(ctx):
        comm = ctx.comm
        peer = 1 - ctx.rank
        sbuf = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(64)
        rr = yield from comm.irecv(rbuf, source=peer, tag=0)
        sr = yield from comm.isend(sbuf, dest=peer, tag=0)
        yield from waitall(ctx.mpi, [rr, sr])
        assert np.all(rbuf.data == float(peer + 1))

    World(ONE_NODE).run(main, nprocs=2)


def test_sendrecv_exchange():
    def main(ctx):
        comm = ctx.comm
        peer = 1 - ctx.rank
        sbuf = ctx.gpu.alloc_pinned(8, fill=float(ctx.rank))
        rbuf = ctx.gpu.alloc_pinned(8)
        yield from comm.sendrecv(sbuf, peer, rbuf, peer)
        assert np.all(rbuf.data == float(peer))

    World(ONE_NODE).run(main, nprocs=2)


def test_dest_out_of_range():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.isend(ctx.gpu.alloc_pinned(4), dest=9)
        return True

    assert World(ONE_NODE).run(main, nprocs=2) == [True, True]


def test_inter_node_device_send_staged_and_correct():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(1 << 16, fill=3.25)
            yield from comm.send(sbuf, dest=1, tag=0)
        else:
            rbuf = ctx.gpu.alloc(1 << 16)
            yield from comm.recv(rbuf, source=0, tag=0)
            assert np.all(rbuf.data == 3.25)

    World(SPECS["gh200-2x1"]).run(main, nprocs=2)


def test_many_outstanding_messages():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            reqs = []
            for k in range(20):
                r = yield from comm.isend(ctx.gpu.alloc_pinned(4, fill=float(k)), dest=1, tag=k)
                reqs.append(r)
            yield from waitall(ctx.mpi, reqs)
        else:
            # receive in reverse tag order: matching must sort it out
            for k in reversed(range(20)):
                rbuf = ctx.gpu.alloc_pinned(4)
                yield from comm.recv(rbuf, source=0, tag=k)
                assert rbuf.data[0] == float(k)

    World(ONE_NODE).run(main, nprocs=2)


def test_request_status_and_test():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sreq = yield from comm.isend(ctx.gpu.alloc(1024, fill=1.0), dest=1)
            assert not sreq.test()  # rendezvous cannot be done instantly
            yield from sreq.wait()
            assert sreq.test()
        else:
            rbuf = ctx.gpu.alloc(1024)
            yield from comm.recv(rbuf, source=0)

    World(ONE_NODE).run(main, nprocs=2)
