"""Collective staging belongs to a long-lived owner: an NCCL rank keeps its
ring window on its ``NcclComm``, the host-staged collectives keep their
scratch on the rank's runtime.  Repeated calls reuse it; a call of another
count or dtype replaces it; every result stays exact."""

import numpy as np
import pytest

from repro.cuda.stream import Stream
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.nccl import NcclComm
from repro.san import Sanitizer

P = 4
N = 4096


@pytest.fixture
def allocs(monkeypatch):
    """``(label, space, n, dtype)`` of every ``Buffer.alloc``."""
    seen = []
    real = Buffer.alloc.__func__

    def alloc(cls, *args, **kwargs):
        buf = real(cls, *args, **kwargs)
        seen.append((buf.label, buf.space, len(buf.data), buf.data.dtype))
        return buf

    monkeypatch.setattr(Buffer, "alloc", classmethod(alloc))
    return seen


def _fill(buf, rank):
    buf.data[:] = np.arange(len(buf.data)) * (rank + 1)


def _expect(n, dtype):
    return np.arange(n, dtype=dtype) * sum(r + 1 for r in range(P))


def _calls(calls):
    """Run three calls at N float64, then one at 2N, then one at N float32;
    ``calls(ctx)`` sets a rank up and returns its one-call generator."""
    shapes = [(N, np.float64)] * 3 + [(2 * N, np.float64), (N, np.float32)]

    def main(ctx):
        results = []
        run = yield from calls(ctx)
        for n, dtype in shapes:
            buf = ctx.gpu.alloc(n, dtype=dtype)
            _fill(buf, ctx.rank)
            yield from run(buf)
            results.append(buf.data.copy())
        return results

    with World(ONE_NODE) as world:
        per_rank = world.run(main, nprocs=P)
    for results in per_rank:
        for (n, dtype), got in zip(shapes, results):
            assert got.dtype == dtype
            assert np.array_equal(got, _expect(n, dtype))


def test_nccl_keeps_one_ring_window_per_rank(allocs):
    def calls(ctx):
        nccl = yield from NcclComm.init(ctx)

        def run(buf):
            nccl.all_reduce(buf, buf)
            yield from ctx.gpu.sync_h()
        return run

    _calls(calls)
    windows = [(n, dtype) for label, _s, n, dtype in allocs if label.startswith("nccl_stage")]
    # chunk * n_steps elements: N/P per chunk, 2(P-1) steps.
    steps = 2 * (P - 1)
    assert windows == (
        [(N // P * steps, np.float64)] * P
        + [(2 * N // P * steps, np.float64)] * P
        + [(N // P * steps, np.float32)] * P
    )


def test_nccl_calls_overlapping_on_two_streams_use_two_windows(allocs):
    """A call that starts while another of its communicator still runs
    (on another stream) must not share that call's window."""

    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        warm = ctx.gpu.alloc(N)
        nccl.all_reduce(warm, warm)  # leaves a window to reuse
        yield from ctx.gpu.sync_h()
        a = ctx.gpu.alloc(N)
        b = ctx.gpu.alloc(N)
        _fill(a, ctx.rank)
        b.data[:] = 7.0 * (ctx.rank + 1)
        other = Stream(ctx.gpu, name="s1")
        nccl.all_reduce(a, a)
        nccl.all_reduce(b, b, stream=other)
        yield from ctx.gpu.sync_h()
        yield from ctx.gpu.sync_h(other)
        return a.data.copy(), b.data.copy()

    with World(ONE_NODE) as world:
        per_rank = world.run(main, nprocs=P)
    for a, b in per_rank:
        assert np.array_equal(a, _expect(N, np.float64))
        assert np.all(b == 7.0 * sum(r + 1 for r in range(P)))
    # The warm-up's window per rank, then one fresh one for the overlap.
    assert sum(label.startswith("nccl_stage") for label, *_ in allocs) == 2 * P


def test_host_staged_allreduce_keeps_one_scratch_set_per_rank(allocs):
    def calls(ctx):
        yield from ()

        def run(buf):
            yield from ctx.comm.allreduce(buf, buf)
        return run

    _calls(calls)
    scratch = sorted(
        (n, str(dtype)) for label, space, n, dtype in allocs
        if space is MemSpace.PINNED and label == ""
    )
    # Per rank and shape: the ring's receive chunk and the staged copy.
    per_shape = [(N // P, "float64"), (N, "float64"), (2 * N // P, "float64"),
                 (2 * N, "float64"), (N // P, "float32"), (N, "float32")]
    assert scratch == sorted(per_shape * P)


def test_reused_staging_is_sanitizer_clean():
    """Two NCCL calls back to back on one stream, with no sync between
    them, reuse the window while a host-staged allreduce reuses its
    scratch every iteration."""

    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        out = []
        for _ in range(2):
            a = ctx.gpu.alloc(N, fill=float(ctx.rank + 1))
            b = ctx.gpu.alloc(N, fill=float(ctx.rank + 1))
            h = ctx.gpu.alloc(N)
            _fill(h, ctx.rank)
            nccl.all_reduce(a, a)
            nccl.all_reduce(b, b)
            yield from ctx.gpu.sync_h()
            yield from ctx.comm.allreduce(h, h)
            out.append((a.data.copy(), b.data.copy(), h.data.copy()))
        return out

    with Sanitizer() as san:
        with World(ONE_NODE) as world:
            per_rank = world.run(main, nprocs=P)
    total = float(sum(r + 1 for r in range(P)))
    for out in per_rank:
        for a, b, h in out:
            assert np.all(a == total) and np.all(b == total)
            assert np.array_equal(h, _expect(N, np.float64))
    assert len(san.recorder.events) > 0
    assert san.findings == []
