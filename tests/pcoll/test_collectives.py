"""Partitioned collectives end-to-end: allreduce, bcast, device path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiStateError, MpiUsageError
from repro.mpi.ops import MAX, SUM
from repro.mpi.world import World
from repro.partitioned import device as pdev


def _allreduce_job(P, U, chunk=64, epochs=1, op=SUM, config=None, values=None):
    """Run a partitioned allreduce; returns per-rank final arrays."""
    config = config or (ONE_NODE if P <= 4 else PAPER_TESTBED)
    n = U * P * chunk

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        req = yield from comm.pallreduce_init(w, w, partitions=U, op=op, device=ctx.gpu)
        outs = []
        for e in range(epochs):
            fill = values(ctx.rank, e) if values else float(ctx.rank + 1)
            w.data[:] = fill
            yield from req.start()
            yield from req.pbuf_prepare()
            for u in range(U):
                yield from req.pready(u)
            yield from req.wait()
            outs.append(w.data.copy())
        return outs

    return World(config).run(main, nprocs=P)


@pytest.mark.parametrize("P,U", [(2, 1), (2, 4), (3, 2), (4, 4), (4, 8)])
def test_allreduce_sum_shapes(P, U):
    results = _allreduce_job(P, U)
    expect = sum(range(1, P + 1))
    for r in results:
        assert np.all(r[0] == expect)


def test_allreduce_max():
    results = _allreduce_job(4, 2, op=MAX)
    for r in results:
        assert np.all(r[0] == 4.0)


def test_allreduce_eight_ranks_two_nodes():
    results = _allreduce_job(8, 2, config=PAPER_TESTBED)
    for r in results:
        assert np.all(r[0] == sum(range(1, 9)))


def test_allreduce_multi_epoch():
    results = _allreduce_job(4, 2, epochs=3, values=lambda r, e: float(r + 1 + 10 * e))
    for r in results:
        for e in range(3):
            assert np.all(r[e] == sum(x + 1 + 10 * e for x in range(4)))


def test_allreduce_nonuniform_data():
    """Each element differs: verifies chunk routing exactly."""
    rng_n = 4 * 4 * 16

    def values(rank, _e):
        return 0.0  # placeholder; we fill below via closure trick

    # Use distinct per-element data through a custom job.
    def main(ctx):
        comm = ctx.comm
        n = rng_n
        w = ctx.gpu.alloc(n)
        w.data[:] = np.arange(n) * (ctx.rank + 1)
        req = yield from comm.pallreduce_init(w, w, partitions=4, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(4):
            yield from req.pready(u)
        yield from req.wait()
        return w.data.copy()

    results = World(ONE_NODE).run(main, nprocs=4)
    expected = np.arange(rng_n) * sum(range(1, 5))
    for r in results:
        assert np.allclose(r, expected)


def test_allreduce_out_of_place_staging():
    def main(ctx):
        comm = ctx.comm
        n = 4 * 4 * 16
        src = ctx.gpu.alloc(n, fill=float(ctx.rank + 1))
        dst = ctx.gpu.alloc(n)
        req = yield from comm.pallreduce_init(src, dst, partitions=4, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(4):
            yield from req.pready(u)
        yield from req.wait()
        assert np.all(src.data == float(ctx.rank + 1))  # source untouched
        assert np.all(dst.data == 10.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_collective_parrived_flags():
    order = {}

    def main(ctx):
        comm = ctx.comm
        n = 2 * 4 * 16
        w = ctx.gpu.alloc(n, fill=1.0)
        req = yield from comm.pallreduce_init(w, w, partitions=2, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        assert not req.parrived(0)
        for u in range(2):
            yield from req.pready(u)
        yield from req.wait()
        assert req.parrived(0) and req.parrived(1)
        with pytest.raises(MpiUsageError):
            req.parrived(5)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_device_initiated_collective():
    def main(ctx):
        comm = ctx.comm
        grid, block = 32, 1024
        n = grid * block
        w = ctx.gpu.alloc(n, fill=float(ctx.rank + 1))
        req = yield from comm.pallreduce_init(w, w, partitions=8, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        preq = yield from req.prequest_create(ctx.gpu, grid=grid, block=block)
        k = UniformKernel(grid, block, WorkSpec.bce(),
                          wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv))
        yield from ctx.gpu.launch_h(k)
        yield from req.wait()
        assert np.all(w.data == 10.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_pbcast_root_and_leaves():
    def main(ctx):
        comm = ctx.comm
        buf = ctx.gpu.alloc(256, fill=float(99 if ctx.rank == 2 else 0))
        req = yield from comm.pbcast_init(buf, partitions=4, root=2, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        if ctx.rank == 2:
            for u in range(4):
                yield from req.pready(u)
        yield from req.wait()
        assert np.all(buf.data == 99.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_pbcast_partition_pipelining():
    """Partitions released one by one still complete (independent SMs)."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.gpu.alloc(64, fill=float(7 if ctx.rank == 0 else 0))
        req = yield from comm.pbcast_init(buf, partitions=4, root=0, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        if ctx.rank == 0:
            for u in range(4):
                yield ctx.engine.timeout(5e-6)
                yield from req.pready(u)
        yield from req.wait()
        assert np.all(buf.data == 7.0)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_pready_errors():
    def main(ctx):
        comm = ctx.comm
        n = 2 * 4 * 16
        w = ctx.gpu.alloc(n, fill=1.0)
        req = yield from comm.pallreduce_init(w, w, partitions=2, device=ctx.gpu)
        with pytest.raises(MpiStateError):
            req.issue_user_pready(0)  # before start
        yield from req.start()
        yield from req.pbuf_prepare()
        yield from req.pready(0)
        with pytest.raises(MpiStateError, match="twice"):
            yield from req.pready(0)
        with pytest.raises(MpiUsageError):
            yield from req.pready(9)
        yield from req.pready(1)
        yield from req.wait()
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_indivisible_geometry_rejected():
    def main(ctx):
        comm = ctx.comm
        with pytest.raises(MpiUsageError):
            # 100 elements / 3 partitions does not divide
            yield from comm.pallreduce_init(
                ctx.gpu.alloc(100), ctx.gpu.alloc(100), partitions=3, device=ctx.gpu
            )
        return True

    # NB: init raises locally before any communication, so all ranks agree.
    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_chunk_indivisible_rejected():
    def main(ctx):
        comm = ctx.comm
        # 8 elements, 2 partitions -> 4 elems/partition; P=4 ring chunks
        # would need 4 | 4 -> ok; use P=3... with nprocs=3 ring chunks=3
        with pytest.raises(MpiUsageError, match="ring chunks"):
            yield from comm.pallreduce_init(
                ctx.gpu.alloc(8), ctx.gpu.alloc(8), partitions=2, device=ctx.gpu
            )
        return True

    assert all(World(ONE_NODE).run(main, nprocs=3))


def test_single_rank_collective_rejected():
    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from ctx.comm.pallreduce_init(
                ctx.gpu.alloc(8), ctx.gpu.alloc(8), partitions=2, device=ctx.gpu
            )
        return True

    assert all(World(ONE_NODE).run(main, nprocs=1))


@given(
    P=st.sampled_from([2, 4]),
    U=st.sampled_from([1, 2, 4]),
    chunk=st.sampled_from([4, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_property_allreduce_equals_numpy_sum(P, U, chunk, seed):
    """Partitioned allreduce == elementwise sum for random inputs."""
    rng = np.random.default_rng(seed)
    n = U * P * chunk
    inputs = {r: rng.standard_normal(n) for r in range(P)}

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(n)
        w.data[:] = inputs[ctx.rank]
        req = yield from comm.pallreduce_init(w, w, partitions=U, device=ctx.gpu)
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(U):
            yield from req.pready(u)
        yield from req.wait()
        return w.data.copy()

    results = World(ONE_NODE).run(main, nprocs=P)
    expected = sum(inputs.values())
    for r in results:
        assert np.allclose(r, expected)
