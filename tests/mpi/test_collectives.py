"""Traditional collectives: correctness + baseline cost structure."""

import numpy as np
import pytest

from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.mpi.comm import ANY_SOURCE, ANY_TAG
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import BAND, BOR, MAX, MIN, PROD, SUM
from repro.mpi.world import World
from repro.nccl import NcclComm
from repro.units import us


def test_barrier_synchronizes():
    arrivals = []

    def main(ctx):
        yield ctx.engine.timeout(ctx.rank * 10 * us)  # staggered entry
        yield from ctx.comm.barrier()
        arrivals.append((ctx.rank, ctx.now))

    World(ONE_NODE).run(main, nprocs=4)
    times = [t for _r, t in arrivals]
    assert max(times) - min(times) < 5 * us  # everyone leaves together-ish
    assert min(times) >= 30 * us             # nobody leaves before the last entry


def test_barrier_single_rank():
    def main(ctx):
        yield from ctx.comm.barrier()
        return True

    assert World(ONE_NODE).run(main, nprocs=1) == [True]


#: Sizes that are not a power of two: the trees are incomplete.
ODD_SIZES = (3, 5, 6)


def _world(nprocs):
    """One node up to four ranks, two beyond."""
    return World(ONE_NODE if nprocs <= 4 else PAPER_TESTBED)


def _roots(four_roots):
    """``(nprocs, root)`` cases: the 4-rank roots under their plain ids,
    then the first, second and last root of every odd size."""
    return [pytest.param(4, root, id=str(root)) for root in four_roots] + [
        pytest.param(p, root, id=f"P{p}-{root}")
        for p in ODD_SIZES for root in (0, 1, p - 1)
    ]


@pytest.mark.parametrize("nprocs,root", _roots([0, 1, 3]))
def test_bcast_from_any_root(nprocs, root):
    def main(ctx):
        buf = ctx.gpu.alloc_pinned(32, fill=float(ctx.rank * 100))
        if ctx.rank == root:
            buf.data[:] = 77.0
        yield from ctx.comm.bcast(buf, root=root)
        assert np.all(buf.data == 77.0)

    _world(nprocs).run(main, nprocs=nprocs)


def test_bcast_bad_root():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.bcast(ctx.gpu.alloc_pinned(4), root=9)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


@pytest.mark.parametrize("coll", ["bcast", "reduce"])
@pytest.mark.parametrize("root", [-1, 4], ids=["minus-one", "size"])
def test_bad_root_raises_on_every_rank(coll, root):
    def main(ctx):
        buf = ctx.gpu.alloc_pinned(4, fill=1.0)
        with pytest.raises(MpiUsageError):
            if coll == "bcast":
                yield from ctx.comm.bcast(buf, root=root)
            else:
                yield from ctx.comm.reduce(buf, ctx.gpu.alloc_pinned(4), SUM, root=root)
        return True

    assert World(ONE_NODE).run(main, nprocs=4) == [True] * 4


@pytest.mark.parametrize("recv_len", [None, 3], ids=["missing", "short"])
def test_reduce_checks_root_recvbuf_before_communicating(recv_len):
    # Only the root calls: if it communicated first it would wait forever
    # for its child's contribution.
    def main(ctx):
        if ctx.rank == 0:
            recvbuf = None if recv_len is None else ctx.gpu.alloc_pinned(recv_len)
            with pytest.raises(MpiUsageError):
                yield from ctx.comm.reduce(ctx.gpu.alloc_pinned(4), recvbuf, SUM, root=0)
        return True

    assert World(ONE_NODE).run(main, nprocs=2) == [True, True]


#: (op, its numpy reduction); rank r contributes r + 1.
OPS = [(SUM, np.sum), (PROD, np.prod), (MAX, np.max), (MIN, np.min)]


@pytest.mark.parametrize("nprocs,op,ref", [
    pytest.param(4, op, ref, id=f"op{i}-{ref(np.arange(1.0, 5.0))}")
    for i, (op, ref) in enumerate(OPS)
] + [
    pytest.param(p, op, ref, id=f"P{p}-{op.name}") for p in ODD_SIZES for op, ref in OPS
])
def test_allreduce_ops_host(nprocs, op, ref):
    def main(ctx):
        sbuf = ctx.gpu.alloc_pinned(120, fill=float(ctx.rank + 1))  # 120 = 0 mod P
        rbuf = ctx.gpu.alloc_pinned(120)
        yield from ctx.comm.allreduce(sbuf, rbuf, op)
        assert np.all(rbuf.data == ref(np.arange(1.0, nprocs + 1)))

    _world(nprocs).run(main, nprocs=nprocs)


def test_allreduce_device_buffers_correct():
    def main(ctx):
        sbuf = ctx.gpu.alloc(4096, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(4096)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == 10.0)
        return ctx.now

    World(ONE_NODE).run(main, nprocs=4)


def test_allreduce_indivisible_count_takes_reduce_bcast_path():
    # 7 elements over 3 ranks: no ring; reduce to 0, then bcast, on
    # device buffers.
    def main(ctx):
        sbuf = ctx.gpu.alloc(7)
        sbuf.data[:] = np.arange(7.0) * (ctx.rank + 1)
        rbuf = ctx.gpu.alloc(7)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.array_equal(rbuf.data, np.arange(7.0) * 6.0)
        return True

    assert World(ONE_NODE).run(main, nprocs=3) == [True] * 3


@pytest.mark.parametrize("source,tag", [(ANY_SOURCE, ANY_TAG), (0, (1 << 20) + 32)],
                         ids=["wildcard", "user-tag"])
def test_user_receive_does_not_match_collective_traffic(source, tag):
    # MPI keeps collective and point-to-point traffic apart: a receive
    # the application posted before a collective matches only the
    # application's own later send.
    def main(ctx):
        got = ctx.gpu.alloc_pinned(8)
        if ctx.rank == 1:
            req = yield from ctx.comm.irecv(got, source, tag)
        sbuf = ctx.gpu.alloc_pinned(8, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc_pinned(8)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            yield from ctx.comm.send(ctx.gpu.alloc_pinned(8, fill=5.0), 1,
                                     tag=0 if tag == ANY_TAG else tag)
        else:
            yield from req.wait()
            assert np.all(got.data == 5.0)
        return float(rbuf.data[0])

    assert World(ONE_NODE).run(main, nprocs=2) == [3.0, 3.0]


def test_allreduce_device_pays_bounce_penalty():
    """Device-buffer allreduce must cost far more than host-buffer."""

    def main(ctx, space):
        n = 1 << 17
        if space == "device":
            sbuf, rbuf = ctx.gpu.alloc(n, fill=1.0), ctx.gpu.alloc(n)
        else:
            sbuf, rbuf = ctx.gpu.alloc_pinned(n, fill=1.0), ctx.gpu.alloc_pinned(n)
        t0 = ctx.now
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        return ctx.now - t0

    t_dev = max(World(ONE_NODE).run(main, nprocs=4, args=("device",)))
    t_host = max(World(ONE_NODE).run(main, nprocs=4, args=("host",)))
    assert t_dev > 3 * t_host


def test_allreduce_mismatched_sizes():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.allreduce(ctx.gpu.alloc(8), ctx.gpu.alloc(16), SUM)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_allreduce_single_rank_copies():
    def main(ctx):
        sbuf = ctx.gpu.alloc(16, fill=3.0)
        rbuf = ctx.gpu.alloc(16)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == 3.0)

    World(ONE_NODE).run(main, nprocs=1)


@pytest.mark.parametrize("nprocs,root", _roots([0, 2]))
def test_reduce_to_root(nprocs, root):
    def main(ctx):
        sbuf = ctx.gpu.alloc_pinned(64, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc_pinned(64) if ctx.rank == root else None
        yield from ctx.comm.reduce(sbuf, rbuf, SUM, root=root)
        if ctx.rank == root:
            assert np.all(rbuf.data == nprocs * (nprocs + 1) / 2)

    _world(nprocs).run(main, nprocs=nprocs)


def test_allreduce_eight_ranks_two_nodes():
    def main(ctx):
        sbuf = ctx.gpu.alloc(1024, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(1024)
        yield from ctx.comm.allreduce(sbuf, rbuf, SUM)
        assert np.all(rbuf.data == sum(range(1, 9)))

    World(PAPER_TESTBED).run(main, nprocs=8)


@pytest.mark.parametrize("call", ["allreduce", "reduce", "pallreduce_init", "ncclAllReduce"])
@pytest.mark.parametrize("op", [BAND, BOR], ids=repr)
def test_op_undefined_on_dtype_raises_before_any_traffic(call, op):
    """A bitwise op on float64 buffers is a typed usage error, raised by
    the call's first step, before any traffic moves."""
    def main(ctx):
        sbuf, rbuf = ctx.gpu.alloc(64, fill=1.0), ctx.gpu.alloc(64)
        if call == "ncclAllReduce":
            nccl = yield from NcclComm.init(ctx)

            def start():
                nccl.all_reduce(sbuf, rbuf, op)
        elif call == "pallreduce_init":
            start = ctx.comm.pallreduce_init(sbuf, rbuf, 2, op).__next__
        else:
            start = getattr(ctx.comm, call)(sbuf, rbuf, op).__next__
        ledger = ctx.gpu.fabric.dataplane.ledger
        moved = ledger.total_bytes()
        with pytest.raises(MpiUsageError, match=f"{call}: MPI_{op.name} is not defined on float64"):
            start()
        assert ledger.total_bytes() == moved
        return True

    assert World(ONE_NODE).run(main, nprocs=2) == [True, True]
