"""World teardown: a closed World frees its payloads without a collection."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.apps import measure_jacobi_gflops
from repro.bench.coll import measure_allreduce, measure_overheads
from repro.hw.memory import Buffer
from repro.hw.params import ONE_NODE
from repro.hw.topology import Fabric
from repro.mpi.errors import MpiUsageError
from repro.mpi.world import World
from repro.nccl import NcclComm
from repro.sim.engine import Engine
from repro.sim.events import AllOf
from repro.units import us


@pytest.fixture
def payloads(monkeypatch):
    """Weak references to the array of every non-virtual ``Buffer.alloc``,
    recorded with the cyclic collector disabled."""
    refs = []
    real = Buffer.alloc.__func__

    def alloc(cls, *args, **kwargs):
        buf = real(cls, *args, **kwargs)
        if not buf.is_virtual:
            refs.append((buf.label, weakref.ref(buf.data)))
        return buf

    monkeypatch.setattr(Buffer, "alloc", classmethod(alloc))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()


def _alive(refs):
    return [label for label, ref in refs if ref() is not None]


@pytest.mark.parametrize("variant", ["traditional", "nccl", "partitioned"])
def test_allreduce_payloads_freed_without_collection(payloads, variant):
    measure_allreduce(16, variant, ONE_NODE, nprocs=4)
    assert payloads and _alive(payloads) == []


def test_table1_payloads_freed_without_collection(payloads):
    # Host-side Pready with a device request attached: every epoch's
    # progression watchers stay parked, and close() must stop them.
    measure_overheads(iters=3)
    assert payloads and _alive(payloads) == []


@pytest.mark.parametrize("variant,copy_mode", [
    ("traditional", "pe"), ("partitioned", "pe"), ("partitioned", "kc_auto"),
    ("graphed", "pe"),  # publishes its receive halos through the World
])
def test_fig8_jacobi_payloads_freed_without_collection(payloads, variant, copy_mode):
    measure_jacobi_gflops(1, variant, ONE_NODE, 4, iters=4, copy_mode=copy_mode)
    assert payloads and _alive(payloads) == []


def _barrier_main(ctx):
    yield from ctx.comm.barrier()
    return ctx.mpi


def test_close_is_idempotent_and_stops_the_daemons():
    with World(ONE_NODE) as world:
        runtimes = world.run(_barrier_main, nprocs=2)
        daemons = [p for rt in runtimes for p in rt.progress._procs]
        daemons += [s._worker for d in world.devices for s in d.streams]
        assert all(p.is_alive for p in daemons)
    assert not any(p.is_alive for p in daemons)
    assert world.engine.peek() == float("inf")
    world.close()
    assert world.engine.peek() == float("inf")


def test_closing_an_embedded_world_leaves_the_host_engine_alone():
    engine = Engine()

    def host_work():
        for _ in range(3):
            yield engine.timeout(100 * us)
        return "host done"

    host = engine.process(host_work(), name="shard-resident")
    fabric = Fabric(engine, ONE_NODE)
    world = World(fabric=fabric)
    assert world.fabric is fabric and world.engine is engine
    ranks = world.launch(_barrier_main, nprocs=2)
    engine.run(AllOf(engine, ranks))
    heap = list(engine._heap)
    daemons = [p for rank in ranks for p in rank.value.progress._procs]

    world.close()
    assert {entry[2] for entry in heap} <= {entry[2] for entry in engine._heap}
    assert not any(p.is_alive for p in daemons)
    assert engine.run(host) == "host done"


def _allreduce_main(ctx):
    buf = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
    yield from ctx.comm.allreduce(buf, buf)
    return ctx.mpi


def test_closing_an_embedded_world_closes_its_ranks():
    engine = Engine()
    world = World(fabric=Fabric(engine, ONE_NODE))
    ranks = world.launch(_allreduce_main, nprocs=2)
    engine.run(AllOf(engine, ranks))
    runtimes = [rank.value for rank in ranks]
    streams = [s for device in world.devices for s in device.streams]
    assert [rt.worker.am.unmatched() for rt in runtimes] == [(0, 5)] * 2
    assert all(rt.scratch for rt in runtimes)

    world.close()
    assert [rt.worker.am.unmatched() for rt in runtimes] == [(0, 0)] * 2
    assert not any(loop.is_alive for rt in runtimes for loop in rt.progress._procs)
    assert [rt.scratch for rt in runtimes] == [{}, {}]
    assert not any(s._worker.is_alive for s in streams)



def test_embedded_world_takes_its_machine_from_the_fabric():
    fabric = Fabric(Engine(), ONE_NODE)
    assert len(World(fabric=fabric).devices) == ONE_NODE.n_gpus
    with pytest.raises(MpiUsageError, match="a spec or a fabric, not both"):
        World(ONE_NODE, fabric=fabric)

def test_run_twice_on_one_open_world():
    def main(ctx):
        buf = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
        yield from ctx.comm.allreduce(buf, buf)
        return float(buf.data[0]), ctx.now

    world = World(ONE_NODE)
    first = world.run(main, nprocs=4)
    second = world.run(main, nprocs=2)
    assert [v for v, _ in first] == [10.0] * 4
    assert [v for v, _ in second] == [3.0] * 2
    assert min(t for _, t in second) > max(t for _, t in first)
    world.close()


def test_nccl_retires_each_op_once_every_rank_finished():
    def main(ctx):
        nccl = yield from NcclComm.init(ctx)
        buf = ctx.gpu.alloc(4096, fill=1.0)
        for _ in range(3):
            nccl.all_reduce(buf, buf)
            yield from ctx.gpu.sync_h()
        return buf.data.copy()

    world = World(ONE_NODE)
    for out in world.run(main, nprocs=4):
        assert np.all(out == 4.0 ** 3)
    (clique,) = world._shared.values()
    assert clique.boards == {}
    world.close()
