"""Rendezvous state at the end of a run, and per-World numbering.

A finished job leaves nothing half-matched: every partitioned setup_t /
RTR hand-off paired, no posted or unexpected two-sided message, no send or
receive awaiting its protocol reply.  The only parked waiters are the five
progression loops (one p2p, four partitioned) on each rank's AM channel.
Request seqs and UCP worker ids are numbered per World, so identical runs
number them alike.
"""

import numpy as np
import pytest

from repro.hw.params import ONE_NODE
from repro.mpi.requests import waitall
from repro.mpi.world import World

PARTITIONS = 4
EPOCHS = 2
RNDV_ELEMS = 1 << 12  # 32 KiB: above the eager limit, so the rndv path runs


def _partitioned_main(ctx):
    comm, peer = ctx.comm, 1 - ctx.rank
    buf = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
    if ctx.rank == 0:
        req = yield from comm.psend_init(buf, PARTITIONS, dest=peer, tag=3)
    else:
        req = yield from comm.precv_init(buf, PARTITIONS, source=peer, tag=3)
    for _ in range(EPOCHS):
        yield from req.start()
        yield from req.pbuf_prepare()
        if ctx.rank == 0:
            for u in range(PARTITIONS):
                yield from req.pready(u)
        yield from req.wait()
    assert (buf.data == 1.0).all()
    # Two-sided traffic on the same ranks: rendezvous-sized, so sends and
    # receives sit in pending_sends / recv_by_seq until their FIN.
    sbuf = ctx.gpu.alloc(RNDV_ELEMS, fill=float(ctx.rank))
    rbuf = ctx.gpu.alloc(RNDV_ELEMS)
    rr = yield from comm.irecv(rbuf, source=peer, tag=0)
    sr = yield from comm.isend(sbuf, dest=peer, tag=0)
    yield from waitall(ctx.mpi, [rr, sr])
    assert np.all(rbuf.data == float(peer))
    return ctx.mpi


def _pallreduce_main(ctx):
    w = ctx.gpu.alloc(1024)
    req = yield from ctx.comm.pallreduce_init(w, w, partitions=PARTITIONS, device=ctx.gpu)
    for e in range(EPOCHS):
        w.data[:] = float(ctx.rank + e)
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(PARTITIONS):
            yield from req.pready(u)
        yield from req.wait()
        assert (w.data == sum(r + e for r in range(ctx.size))).all()
    return ctx.mpi


@pytest.mark.parametrize("main,nprocs", [
    (_partitioned_main, 2),
    (_pallreduce_main, 4),
], ids=["partitioned-p2p", "pallreduce"])
def test_no_rendezvous_left_half_matched(main, nprocs):
    with World(ONE_NODE) as world:
        for rt in world.run(main, nprocs=nprocs):
            assert rt.part_matcher.unmatched() == (0, 0)
            assert (rt.matcher._posted, rt.matcher._unexpected) == ([], [])
            assert rt.pending_sends == {} and rt.recv_by_seq == {}
            assert rt.worker.am.unmatched() == (0, 5)


def _numbering(ctx):
    comm, peer = ctx.comm, 1 - ctx.rank
    buf = ctx.gpu.alloc(8, fill=1.0)
    rr = yield from comm.irecv(ctx.gpu.alloc(8), source=peer, tag=1)
    sr = yield from comm.isend(buf, dest=peer, tag=1)
    yield from waitall(ctx.mpi, [rr, sr])
    return rr.seq, sr.seq, ctx.mpi.worker.worker_id


def test_back_to_back_worlds_number_alike():
    runs = []
    for _ in range(2):
        with World(ONE_NODE) as world:
            runs.append(world.run(_numbering, nprocs=2))
    assert runs[0] == runs[1]
    # Worker ids stay unique within the World.
    assert len({worker for _r, _s, worker in runs[0]}) == 2

