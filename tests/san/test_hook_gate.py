"""The sanitizer hooks cost nothing on an unobserved run.

Every hook site on the run path tests the run's bus before it builds the
hook's arguments, so a run with no bus makes no call into
``repro/san/record.py`` at all.  The gate is the run's bus, not
``engine.obs``: a World built before ``with Sanitizer()`` is sanitized
exactly like one built inside it.
"""

import os
import sys

import numpy as np
import pytest

from repro.cuda.kernel import BlockKernel, UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.prequest import CopyMode
from repro.san import Sanitizer, record
from repro.sim.run import current

from tests.dataplane.test_submit_cost import _warm
from tests.sim.test_determinism import _workload

GRID, BLOCK = 4, 256
N = GRID * BLOCK
WORK = WorkSpec.vector_add()
RECORD_FILE = os.path.normcase(os.path.abspath(record.__file__))


def _record_calls(fn):
    """Python-level calls into ``repro/san/record.py`` while ``fn`` runs."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and os.path.normcase(frame.f_code.co_filename) == RECORD_FILE:
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _ping_pong(binding):
    """Two epochs of a partitioned ping-pong: rank 0 sends, rank 1 answers.

    ``host`` readies and polls partitions from the host; ``device`` readies
    them per block through the progression engine and polls them on the
    device; ``kernel-copy`` readies whole waves and stores the data itself.
    """
    def send(ctx, sreq, preq):
        if binding == "host":
            for p in range(GRID):
                yield from sreq.pready(p)
            return
        if binding == "device":
            def body(blk):
                yield blk.compute(WORK)
                yield pdev.pready(blk, preq)

            kernel = BlockKernel(GRID, BLOCK, body)
        else:
            kernel = UniformKernel(
                GRID, BLOCK, WORK, wave_hook=lambda kc, wv: pdev.pready_wave(kc, preq, wv)
            )
        yield from ctx.gpu.launch_h(kernel)

    def receive(ctx, rreq):
        if binding == "host":
            yield from rreq.wait()
            assert all(rreq.parrived(p) for p in range(GRID))
            return

        def body(blk):
            yield pdev.parrived_device(blk, rreq, blk.block_id)

        yield from ctx.gpu.launch_h(BlockKernel(GRID, BLOCK, body))
        yield from ctx.gpu.sync_h()
        yield from rreq.wait()

    def main(ctx):
        comm, peer = ctx.comm, 1 - ctx.rank
        sbuf = ctx.gpu.alloc(N, fill=float(ctx.rank + 1))
        rbuf = ctx.gpu.alloc(N)
        sreq = yield from comm.psend_init(sbuf, GRID, dest=peer, tag=0)
        rreq = yield from comm.precv_init(rbuf, GRID, source=peer, tag=0)
        preq = None
        for _epoch in range(2):
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            if preq is None and binding != "host":
                mode = CopyMode.KERNEL_COPY if binding == "kernel-copy" else None
                agg = AggregationSpec(GRID, BLOCK, 1, SignalMode.BLOCK)
                preq = yield from sreq.prequest_create(ctx.gpu, agg=agg, mode=mode)
            if ctx.rank == 0:
                yield from send(ctx, sreq, preq)
                yield from receive(ctx, rreq)
            else:
                yield from receive(ctx, rreq)
                yield from send(ctx, sreq, preq)
            yield from sreq.wait()
            assert np.all(rbuf.data == float(peer + 1))

    with World(ONE_NODE) as world:
        world.run(main, nprocs=2)


@pytest.mark.parametrize("binding", ["host", "device", "kernel-copy"])
def test_unobserved_partitioned_epochs_make_no_record_calls(binding):
    assert current().bus is None
    _ping_pong(binding)  # warm: imports, lazily built links and caches
    assert _record_calls(lambda: _ping_pong(binding)) == 0
    # The count sees the hooks whenever a run observes them.
    with Sanitizer() as san:
        assert _record_calls(lambda: _ping_pong(binding)) > 0
    assert san.report.ok


def test_unobserved_put_makes_no_record_calls():
    engine, dp, src, dst = _warm()

    def put_and_run():
        dp.put(src, dst)
        engine.run()

    assert _record_calls(put_and_run) == 0


def _scribble(world):
    """A partitioned send whose host writes the partition while it is on
    the wire: one ``send-overwrite`` finding."""
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(N, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, 1, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            yield from sreq.pready(0)
            record.access(("host", 0), sbuf.partition(0, 1), write=True, note="scribble")
            yield from sreq.wait()
        else:
            rreq = yield from comm.precv_init(ctx.gpu.alloc(N), 1, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()

    world.run(main, nprocs=2)


@pytest.mark.parametrize("program", [_workload, _scribble], ids=["clean", "racy"])
def test_world_built_before_the_sanitizer_is_sanitized_the_same(program):
    prebuilt = World(ONE_NODE)
    assert prebuilt.engine.obs is None
    with Sanitizer() as before:
        program(prebuilt)
    with Sanitizer() as inside:
        program(World(ONE_NODE))
    assert before.trace_bytes() == inside.trace_bytes()
    assert before.findings == inside.findings
    assert len(inside.trace_bytes()) > 0
    assert [f.check for f in inside.findings] == (
        [] if program is _workload else ["send-overwrite"]
    )
