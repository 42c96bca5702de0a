"""A finished cluster run frees its shards by reference counting.

Once the reports are taken, every shard closes the Worlds its build
embedded, drops its engine heaps and breaks its own back-references, so
the rank stacks, UCX workers, devices and shard fabrics leave no cycle
for the collector.  Each run below goes with the collector disabled.
"""

import gc
import weakref
from contextlib import nullcontext

import pytest

from repro.hw.faults import FaultSchedule
from repro.hw.memory import Buffer
from repro.hw.spec.generators import resolve_machine
from repro.shard import ClusterJob
from repro.shard import workloads as workloads_mod
from repro.sim.process import ProcessFailed
from repro.sim.run import run_scope

#: Node 1 loses one NVLink mesh hop halfway through the halo run.
HALO_FAULTS = '{"t": 1.2e-05, "link": "nvl0->1", "action": "down", "node": 1}\n'

#: name -> (machine, workload, cfg, fault JSONL or None).  Both runs leave
#: well over 1,000 cyclic objects when nothing tears their shards down.
RUNS = {
    "allreduce-node": (
        "fat-tree-32-r2-l2", "allreduce-node",
        {"iters": 2, "elems": 256, "ring_bytes": 1 << 12}, None,
    ),
    "halo-faulted": (
        "fat-tree-128", "halo",
        {"iters": 4, "chunks": 2, "chunk_bytes": 1 << 16, "face_bytes": 1 << 16},
        HALO_FAULTS,
    ),
}


def _scope(faults):
    if faults is None:
        return nullcontext()
    return run_scope(faults=FaultSchedule.parse_jsonl(faults, source="teardown-test"))


def _run(name, mode, **kwargs):
    machine, workload, cfg, faults = RUNS[name]
    job = ClusterJob(resolve_machine(machine), workload, cfg)
    with _scope(faults):
        return getattr(job, mode)(**kwargs)


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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_finished_run_leaves_no_cyclic_garbage(payloads, name):
    gc.collect()
    result = _run(name, "run_sequential")
    assert all(result.results.values())
    assert [label for label, ref in payloads if ref() is not None] == []
    if name == "allreduce-node":
        assert payloads  # every rank's send and receive buffers
    assert gc.collect() < 1000


@pytest.mark.parametrize("name", sorted(RUNS))
def test_teardown_leaves_every_mode_equal(name):
    seq = _run(name, "run_sequential").signature()
    assert _run(name, "run", workers=2).signature() == seq
    ref = _run(name, "run_reference").signature()
    for key in ("step_digests", "per_shard_popped"):
        seq.pop(key)
    assert ref == seq


def _build_crashing_world(shard, cfg):
    """An embedded World whose rank 0 on shard 1 raises after one
    allreduce: its node peers park in the barrier, every AM loop waits."""
    world = shard.embed_world()

    def main(ctx):
        buf = ctx.gpu.alloc(64, fill=1.0)
        yield from ctx.comm.allreduce(buf, buf)
        if shard.id == 1 and ctx.rank == 0:
            raise ValueError("boom")
        yield from ctx.comm.barrier()
        return ctx.rank

    ranks = world.launch(main, nprocs=shard.n_local_gpus)
    cfg["runtimes"].extend(world._runtimes)
    return ranks


@pytest.mark.parametrize("mode", ["run_sequential", "run_reference"])
def test_crashed_run_is_torn_down_too(monkeypatch, mode):
    monkeypatch.setitem(
        workloads_mod.WORKLOADS, "crash-world",
        workloads_mod.ShardWorkload(_build_crashing_world, {}),
    )
    runtimes = []
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "crash-world",
                     {"runtimes": runtimes})
    with pytest.raises(ProcessFailed, match="boom"):
        getattr(job, mode)()
    assert runtimes
    assert [rt.worker.am.unmatched() for rt in runtimes] == [(0, 0)] * len(runtimes)
    assert not any(loop.is_alive for rt in runtimes for loop in rt.progress._procs)
