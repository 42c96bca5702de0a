"""Extension bench: the paper's proposed relaxed device-Pready semantics.

Section VI-B: "we suggest that this should be relaxed to allow for
computation and communication within the call as that would allow the
execution of an entire allreduce operation within a kernel ...
[reducing] the performance differential between MPI and NCCL."

We implemented that proposal (repro.pcoll.fused): the ring runs on the
device with rkey_ptr-mapped peer windows, in-kernel reductions, and no
host progression.  This bench verifies the prediction: the fused
partitioned allreduce reaches NCCL-class time, well under the
host-progressed partitioned collective.
"""

from conftest import within

from repro.bench.coll import measure_allreduce
from repro.bench.series import Series, render
from repro.cuda import UniformKernel, WorkSpec
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.units import us

GRIDS = (1024, 8192)


def _measure_fused(grid: int, iters: int = 3) -> float:
    def main(ctx):
        comm = ctx.comm
        n = grid * 1024
        w = ctx.gpu.alloc(n)
        req = yield from comm.pallreduce_init(w, w, partitions=8, device=ctx.gpu, fused=True)
        preq = None
        times = []
        for _ in range(iters):
            w.data[:] = float(ctx.rank + 1)
            yield from req.start()
            yield from req.pbuf_prepare()
            if preq is None:
                preq = yield from req.prequest_create(ctx.gpu, grid=grid, block=1024)
            yield from comm.barrier()
            t0 = ctx.now
            k = UniformKernel(grid, 1024, WorkSpec.vector_add(),
                              wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv))
            yield from ctx.gpu.launch_h(k)
            yield from req.wait()
            times.append(ctx.now - t0)
            assert (w.data == 10.0).all()
        return times

    per_rank = World(ONE_NODE).run(main, nprocs=4)
    windows = [max(col) for col in zip(*per_rank)][1:]
    return sum(windows) / len(windows)


def test_ablation_fused_collective(benchmark):
    def run():
        s = Series(
            "Ablation A5",
            "Relaxed device MPIX_Pready: fused vs host-progressed vs NCCL (4 GH200)",
            ["grid", "fused_us", "pe_collective_us", "nccl_us"],
        )
        for grid in GRIDS:
            s.add(
                grid=grid,
                fused_us=_measure_fused(grid) / us,
                pe_collective_us=measure_allreduce(grid, "partitioned", ONE_NODE, 4) / us,
                nccl_us=measure_allreduce(grid, "nccl", ONE_NODE, 4) / us,
            )
        s.note("paper section VI-B: relaxing the binding should close the NCCL gap")
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))

    for row in series.rows:
        # The fused collective must close most of the PE-vs-NCCL gap...
        assert row["fused_us"] < row["pe_collective_us"] * 0.8, (
            f"fused must clearly beat the host-progressed path at grid {row['grid']}"
        )
        # ...landing within ~15% of NCCL (same mechanism, MPI-native API).
        within(row["fused_us"] / row["nccl_us"], 0.7, 1.15,
               f"fused/NCCL ratio at grid {row['grid']}")
