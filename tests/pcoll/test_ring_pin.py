"""Simulated times of every in-kernel ring allreduce, pinned as exact floats.

NCCL's channel ring and the fused partitioned allreduce run the same ring
step, and the fused request shares the host-progressed collective's request
surface.  Neither may move a simulated time: each mark below is ``ctx.now``
at a fixed point of the run, compared with ``==``.
"""

import pytest

from repro.bench.coll import measure_allreduce
from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.mpi.world import World
from repro.partitioned import device as pdev

GRID = 16
BLOCK = 1024
U = 4
EPOCHS = 3


def _fused_marks(P, device_driven):
    """``ctx.now`` after init, then after each call of 3 fused epochs."""

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(GRID * BLOCK)
        req = yield from comm.pallreduce_init(
            w, w, partitions=U, device=ctx.gpu, fused=True
        )
        marks = [ctx.now]
        preq = None
        for e in range(EPOCHS):
            w.data[:] = float(ctx.rank + 1 + e)
            yield from req.start()
            marks.append(ctx.now)
            yield from req.pbuf_prepare()
            marks.append(ctx.now)
            if device_driven:
                if preq is None:
                    preq = yield from req.prequest_create(ctx.gpu, grid=GRID, block=BLOCK)
                    marks.append(ctx.now)
                kernel = UniformKernel(
                    GRID, BLOCK, WorkSpec.vector_add(),
                    wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv),
                )
                yield from ctx.gpu.launch_h(kernel)
            else:
                for u in range(U):
                    yield from req.pready(u)
            marks.append(ctx.now)
            yield from req.wait()
            marks.append(ctx.now)
            assert (w.data == sum(r + 1 + e for r in range(P))).all()
        return marks

    return World(ONE_NODE).run(main, nprocs=P)


def _mixed_marks():
    """Fused and host-progressed allreduces alternating on one communicator."""

    def main(ctx):
        comm = ctx.comm
        w = ctx.gpu.alloc(GRID * BLOCK)
        fused_a = yield from comm.pallreduce_init(
            w, w, partitions=U, device=ctx.gpu, fused=True
        )
        host = yield from comm.pallreduce_init(w, w, partitions=U, device=ctx.gpu)
        fused_b = yield from comm.pallreduce_init(
            w, w, partitions=U, device=ctx.gpu, fused=True
        )
        marks = [ctx.now]
        for e, req in enumerate([fused_a, host, fused_b, host, fused_a]):
            w.data[:] = float(ctx.rank + 1 + e)
            yield from req.start()
            yield from req.pbuf_prepare()
            for u in range(U):
                yield from req.pready(u)
            yield from req.wait()
            marks.append(ctx.now)
            assert (w.data == sum(r + 1 + e for r in range(comm.size))).all()
        return marks

    return World(ONE_NODE).run(main, nprocs=4)


#: One rank's marks; every rank of a fused run has the same ones.
PINNED_FUSED = {
    (4, True): [
        4.979999999999999e-05,
        4.999999999999999e-05,
        0.00021739999999999997,
        0.00027859999999999994,
        0.00027899999999999995,
        0.00030956278857142836,
        0.00030976278857142836,
        0.0003101627885714284,
        0.0003105627885714284,
        0.0003411255771428568,
        0.0003413255771428568,
        0.0003417255771428568,
        0.0003421255771428568,
        0.0003726883657142852,
    ],
    (4, False): [
        4.979999999999999e-05,
        4.999999999999999e-05,
        0.00021739999999999997,
        0.0002182,
        0.00024024278857142864,
        0.00024044278857142864,
        0.00024084278857142865,
        0.00024164278857142867,
        0.000263685577142857,
        0.000263885577142857,
        0.000264285577142857,
        0.000265085577142857,
        0.00028712836571428535,
    ],
    (2, True): [
        4.02e-05,
        4.04e-05,
        0.0001898,
        0.000251,
        0.0002514,
        0.000269641859047619,
        0.000269841859047619,
        0.000270241859047619,
        0.000270641859047619,
        0.00028888371809523804,
        0.00028908371809523804,
        0.00028948371809523805,
        0.00028988371809523806,
        0.0003081255771428571,
    ],
    (2, False): [
        4.02e-05,
        4.04e-05,
        0.0001898,
        0.00019060000000000003,
        0.00020032185904761914,
        0.00020052185904761915,
        0.00020092185904761915,
        0.00020172185904761917,
        0.0002114437180952383,
        0.0002116437180952383,
        0.0002120437180952383,
        0.00021284371809523832,
        0.00022256557714285744,
    ],
}
PINNED_MIXED = [
    [
        0.00014549999999999996,
        0.0003359427885714283,
        0.0006178564575714275,
        0.000668300206142856,
        0.0009041132751428541,
        0.0009275561837142826,
    ],
    [
        0.00014549999999999996,
        0.0003359427885714283,
        0.0006178569375714276,
        0.000668300206142856,
        0.0009041133951428541,
        0.0009275561837142826,
    ],
    [
        0.00014549999999999996,
        0.0003359427885714283,
        0.0006178574175714275,
        0.000668300206142856,
        0.0009041130351428542,
        0.0009275561837142826,
    ],
    [
        0.00014549999999999996,
        0.0003359427885714283,
        0.0006178559775714276,
        0.000668300206142856,
        0.0009041131551428542,
        0.0009275561837142826,
    ],
]
PINNED_ALLREDUCE = {
    ("nccl", "gh200-1x4", 4): 3.029508190476191e-05,
    ("partitioned", "gh200-1x4", 4): 0.00045759643983333593,
    ("nccl", "gh200-2x4", 8): 6.0817171666666394e-05,
}


@pytest.mark.parametrize("P", [4, 2])
@pytest.mark.parametrize("device_driven", [True, False], ids=["pready_wave", "host_pready"])
def test_fused_marks_pinned(P, device_driven):
    assert _fused_marks(P, device_driven) == [PINNED_FUSED[(P, device_driven)]] * P


def test_fused_and_host_progressed_on_one_comm_pinned():
    assert _mixed_marks() == PINNED_MIXED


@pytest.mark.parametrize("variant,spec,nprocs", [
    ("nccl", ONE_NODE, 4),
    ("partitioned", ONE_NODE, 4),
    ("nccl", PAPER_TESTBED, 8),
], ids=["nccl-gh200-1x4", "partitioned-gh200-1x4", "nccl-gh200-2x4"])
def test_measure_allreduce_pinned(variant, spec, nprocs):
    got = measure_allreduce(32, variant, spec, nprocs)
    assert got == PINNED_ALLREDUCE[(variant, spec.name, nprocs)]
