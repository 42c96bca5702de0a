"""The eager host message path, pinned to its popped events.

The AM dispatch loops are event chains and an endpoint's AM probes are
made once, so the eager path spawns no ``*.prog.*`` process and
allocates nothing per message.  None of that may move a popped
``(time, priority, seq)`` key: the step digests, pop counts and results
below are those of the process loops and per-message probes.
"""

import hashlib
import json
import sys
from fnmatch import fnmatch

import pytest

from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.spec.generators import resolve_machine
from repro.mpi.p2p import AM_P2P
from repro.mpi.progress import AM_PART_RTR, AM_PART_SETUP, AM_PART_SETUP_RESP
from repro.mpi.world import World
from repro.shard import ClusterJob
from repro.sim.process import Process
from repro.ucx.context import UcpWorker

#: The host ring allreduce of four embedded 8-GPU node Worlds, run sequentially.
CLUSTER_POPPED = 23288
CLUSTER_STEPS = "b54b09d69dd9c0d65a3c70bc5466cab9c12a881b3c7378a86ab1051ebfc36ab1"
CLUSTER_MSG = "96f5410c761cfab67e5a3c4c7394e9fa47a50b21c9968fee84af78a43107a0f2"

#: The one-node World below: its pops (observed or not), its step digest
#: (observed) and each rank's (received value, partition value, end time).
WORLD_POPPED = 479
WORLD_STEPS = "bd8f3de3c86203ee5fa94a09cb17626a5d5b1ce0009dae5d40350b9f77769d7c"
WORLD_RESULTS = [[2.0, 1.0, "0x1.31aaee2b35bb4p-12"], [1.0, 1.0, "0x1.329c85b2a65d7p-12"]]

PARTITIONS = 4
EPOCHS = 2
SENDRECVS = 6


def _world_main(ctx):
    """Eager sendrecvs between the two ranks, then two partitioned epochs."""
    comm, peer = ctx.comm, 1 - ctx.rank
    send = Buffer.alloc(64, space=MemSpace.HOST, node=0, fill=float(ctx.rank + 1))
    recv = Buffer.alloc(64, space=MemSpace.HOST, node=0)
    for i in range(SENDRECVS):
        yield from comm.sendrecv(send, peer, recv, peer, sendtag=i, recvtag=i)
    got = float(recv.data[0])
    buf = ctx.gpu.alloc(64, fill=float(ctx.rank + 1))
    if ctx.rank == 0:
        req = yield from comm.psend_init(buf, PARTITIONS, dest=peer, tag=7)
    else:
        req = yield from comm.precv_init(buf, PARTITIONS, source=peer, tag=7)
    for _ in range(EPOCHS):  # the second epoch's pbuf_prepare sends the RTR
        yield from req.start()
        yield from req.pbuf_prepare()
        if ctx.rank == 0:
            for u in range(PARTITIONS):
                yield from req.pready(u)
        yield from req.wait()
    return got, float(buf.data[0]), ctx.now.hex()


def _run_world(observe):
    keys = hashlib.sha256()
    with World(ONE_NODE) as world:
        if observe:
            world.engine.steps = []
        results = world.run(_world_main, nprocs=2)
        for t, p, s in world.engine.steps or ():
            keys.update(f"{t.hex()} {p} {s}\n".encode())
        return world.engine.events_popped, keys.hexdigest(), results


@pytest.fixture
def spawned(monkeypatch):
    names = []
    init = Process.__init__

    def counting_init(self, engine, gen, name=None):
        init(self, engine, gen, name)
        names.append(self.name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return names


def test_cluster_allreduce_node_pins():
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "allreduce-node",
                     {"iters": 2, "elems": 256, "ring_bytes": 4096})
    res = job.run()
    steps = json.dumps(sorted(res.step_digests.items()))
    assert res.events_popped == CLUSTER_POPPED
    assert hashlib.sha256(steps.encode()).hexdigest() == CLUSTER_STEPS
    assert res.msg_digest == CLUSTER_MSG


def test_world_pins_and_reaches_every_am_loop(monkeypatch, spawned):
    am_ids = set()
    deliver = UcpWorker._deliver_am

    def counting_deliver(self, msg):
        am_ids.add(msg.am_id)
        deliver(self, msg)

    monkeypatch.setattr(UcpWorker, "_deliver_am", counting_deliver)
    popped, _, results = _run_world(observe=False)
    # p2p, setup_t, its response and the RTR: every AM the stack sends.  All
    # five loops boot and park; nothing sends AM_PART_FIN.
    assert am_ids == {AM_P2P, AM_PART_SETUP, AM_PART_SETUP_RESP, AM_PART_RTR}
    assert [list(r) for r in results] == WORLD_RESULTS
    assert popped == WORLD_POPPED
    assert _run_world(observe=True)[:2] == (WORLD_POPPED, WORLD_STEPS)
    assert spawned and not [n for n in spawned if fnmatch(n, "*.prog.*")]


def test_eager_sends_allocate_no_probe(monkeypatch):
    callers = []
    real = Buffer.alloc.__func__

    def alloc(cls, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_filename)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Buffer, "alloc", classmethod(alloc))
    _run_world(observe=False)
    assert callers  # the ranks' own buffers
    assert not [f for f in callers if f.replace("\\", "/").endswith("ucx/endpoint.py")]
