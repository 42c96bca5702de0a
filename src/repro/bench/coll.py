"""Workload runners for the collective exhibits (Figs 6/7, Table I).

Fig 6/7 methodology (Section VI-B): Ring algorithm everywhere, large
kernel grid sizes, 8 B contributed per CUDA thread; the measured window is
kernel execution + communication (``MPI_Start``/``MPIX_Pbuf_prepare``
excluded here, *included* in the DL loop of Figs 10/11).  Multi-node runs
place ranks 0-3 and 4-7 on the same nodes, which :class:`~repro.mpi.world.
World`'s rank->GPU mapping already guarantees.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE
from repro.hw.spec.schema import MachineSpec
from repro.mpi.errors import MpiError
from repro.mpi.ops import SUM
from repro.nccl import NcclComm
from repro.partitioned import device as pdev
from repro.bench.p2p import BLOCK, BYTES_PER_THREAD
from repro.workload.runner import run_ranks

#: User partitions for the partitioned allreduce rows.
DEFAULT_USER_PARTITIONS = 8


def _allreduce_main(ctx, grid: int, variant: str, iters: int, partitions: int) -> Generator:
    comm = ctx.comm
    n = grid * BLOCK
    work = WorkSpec.vector_add(BYTES_PER_THREAD)
    w = ctx.gpu.alloc(n, label="ar")
    times: List[float] = []

    nccl = None
    pall = None
    preq = None
    if variant == "nccl":
        nccl = yield from NcclComm.init(ctx)
    elif variant == "partitioned":
        pall = yield from comm.pallreduce_init(w, w, partitions=partitions, device=ctx.gpu)

    def produce() -> None:
        w.data[:] = float(ctx.rank + 1)

    # Every element is a sum of the integers 1..P, which float64 holds
    # exactly in any reduction order, so the check can be exact.
    expect = sum(r + 1 for r in range(comm.size))
    for _ in range(iters):
        if variant == "partitioned":
            yield from pall.start()
            yield from pall.pbuf_prepare()
            if preq is None:
                preq = yield from pall.prequest_create(ctx.gpu, grid=grid, block=BLOCK)
        yield from comm.barrier()
        t0 = ctx.now
        if variant == "traditional":
            yield from ctx.gpu.launch_h(UniformKernel(grid, BLOCK, work, apply=produce))
            yield from ctx.gpu.sync_h()
            yield from comm.allreduce(w, w, SUM)
        elif variant == "nccl":
            yield from ctx.gpu.launch_h(UniformKernel(grid, BLOCK, work, apply=produce))
            nccl.all_reduce(w, w, SUM)
            yield from ctx.gpu.sync_h()
        else:
            kernel = UniformKernel(
                grid, BLOCK, work, apply=produce,
                wave_hook=pdev.PreadyWaveHook(preq),
            )
            yield from ctx.gpu.launch_h(kernel)
            yield from pall.wait()
        times.append(ctx.now - t0)
        if not (w.data == expect).all():
            raise MpiError(f"allreduce wrong: {w.data[:4]} != {expect}")
    return times


def measure_allreduce(
    grid: int,
    variant: str,
    config: MachineSpec,
    nprocs: int,
    iters: int = 2,
    partitions: int = DEFAULT_USER_PARTITIONS,
) -> float:
    """Mean kernel+communication window (seconds), warmup dropped."""
    if iters < 1:
        raise ValueError(f"measure_allreduce needs iters >= 1, got {iters}")
    per_rank = run_ranks(
        config, _allreduce_main, nprocs=nprocs,
        args=(grid, variant, iters + 1, partitions),
    ).results
    windows = [max(col) for col in zip(*per_rank)][1:]
    return sum(windows) / len(windows)


# --------------------------------------------------------------------------
# Table I: API call overheads
# --------------------------------------------------------------------------

def measure_overheads(iters: int = 100, config: MachineSpec = ONE_NODE) -> Dict[str, object]:
    """Time the partitioned API calls exactly as Table I describes."""
    if iters < 2:
        raise ValueError(f"measure_overheads needs iters >= 2, got {iters}")
    out: Dict[str, object] = {}

    def p2p_main(ctx):
        comm = ctx.comm
        n = 64 * 1024
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n)
            t0 = ctx.now
            sreq = yield from comm.psend_init(sbuf, 8, dest=1, tag=0)
            t_init = ctx.now - t0
            prepare_times = []
            preq = None
            t_create = None
            for it in range(iters):
                yield from sreq.start()
                t0 = ctx.now
                yield from sreq.pbuf_prepare()
                prepare_times.append(ctx.now - t0)
                if preq is None:
                    t0 = ctx.now
                    preq = yield from sreq.prequest_create(ctx.gpu, grid=8, block=BLOCK)
                    t_create = ctx.now - t0
                for tp in range(8):
                    yield from sreq.pready(tp)
                yield from sreq.wait()
            return {
                "psend_init": t_init,
                "prequest_create": t_create,
                "pbuf_prepare_first": prepare_times[0],
                "pbuf_prepare_avg": sum(prepare_times[1:]) / (len(prepare_times) - 1),
            }
        else:
            rbuf = ctx.gpu.alloc(n)
            t0 = ctx.now
            rreq = yield from comm.precv_init(rbuf, 8, source=0, tag=0)
            t_init = ctx.now - t0
            for it in range(iters):
                yield from rreq.start()
                yield from rreq.pbuf_prepare()
                yield from rreq.wait()
            return {"precv_init": t_init}

    res = run_ranks(config, p2p_main, nprocs=2).results
    out.update(res[0])
    out.update(res[1])

    def coll_main(ctx):
        comm = ctx.comm
        n = 8 * comm.size * 1024
        w = ctx.gpu.alloc(n)
        t0 = ctx.now
        req = yield from comm.pallreduce_init(w, w, partitions=8, device=ctx.gpu)
        t_init = ctx.now - t0
        yield from req.start()
        yield from req.pbuf_prepare()
        for u in range(8):
            yield from req.pready(u)
        yield from req.wait()
        return t_init

    coll = run_ranks(config, coll_main, nprocs=4).results
    out["pallreduce_init"] = sum(coll) / len(coll)
    return out
