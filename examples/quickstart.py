#!/usr/bin/env python3
"""Quickstart: GPU-initiated MPI Partitioned send in ~60 lines.

Runs two MPI ranks (one per simulated GH200) inside one deterministic
simulation.  Rank 0 launches a vector-add kernel whose blocks call the
device MPIX_Pready — the data flows to rank 1 *while the host never
synchronizes the stream*; rank 1 just waits on its partitioned receive.

    python examples/quickstart.py
"""

import numpy as np

from repro.cuda import BlockKernel, WorkSpec
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.prequest import CopyMode
from repro.units import us

GRID, BLOCK = 4, 1024                 # 4 blocks x 1024 threads x 8 B = 32 KiB
N = GRID * BLOCK


def main(ctx):
    comm = ctx.comm
    if ctx.rank == 0:
        # ---- sender: compute on GPU, communicate from inside the kernel --
        a = ctx.gpu.alloc(N, fill=1.5)
        b = ctx.gpu.alloc(N, fill=2.0)
        sbuf = ctx.gpu.alloc(N, label="send")

        sreq = yield from comm.psend_init(sbuf, partitions=GRID, dest=1, tag=7)
        yield from sreq.start()             # MPI_Start: open the epoch
        yield from sreq.pbuf_prepare()      # MPIX_Pbuf_prepare: receiver ready?
        preq = yield from sreq.prequest_create(   # MPIX_Prequest_create
            ctx.gpu, grid=GRID, block=BLOCK, mode=CopyMode.KERNEL_COPY,
        )

        def kernel_body(blk):               # runs per block, like __global__
            yield blk.compute(WorkSpec.vector_add())
            yield pdev.pready(blk, preq)    # device MPIX_Pready(my block)

        kernel = BlockKernel(
            GRID, BLOCK, kernel_body, name="vadd",
            apply=lambda: np.add(a.data, b.data, out=sbuf.data),
        )
        t0 = ctx.now
        yield from ctx.gpu.launch_h(kernel)  # async launch — and NO
        yield from sreq.wait()               # cudaStreamSynchronize anywhere
        print(f"[rank 0] kernel+send completed in {(ctx.now - t0) / us:.2f} "
              f"simulated us (no stream synchronize!)")
    else:
        # ---- receiver: persistent partitioned receive --------------------
        rbuf = ctx.gpu.alloc(N, label="recv")
        rreq = yield from comm.precv_init(rbuf, partitions=GRID, source=0, tag=7)
        yield from rreq.start()
        yield from rreq.pbuf_prepare()
        yield from rreq.wait()
        assert np.all(rbuf.data == 3.5), "vector add result must arrive intact"
        print(f"[rank 1] received {rbuf.nbytes} bytes; "
              f"rbuf[0] = {rbuf.data[0]} (= 1.5 + 2.0)")
    return ctx.now


if __name__ == "__main__":
    with World(ONE_NODE) as world:
        times = world.run(main, nprocs=2)
    print(f"simulation finished at t = {max(times) / us:.2f} us")
