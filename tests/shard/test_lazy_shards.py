"""Lazy shards: a run builds only the shards its workload hosts or a
fault names, and every other shard reports the constant empty report.

Also pins the embedded World of ``allreduce-node``, which runs on its
shard's own fabric instead of a second fabric nobody routes traffic to.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.generators import resolve_machine
from repro.mpi import world as world_mod
from repro.shard import ClusterError, ClusterJob, Shard
from repro.shard import shard as shard_mod
from repro.shard import workloads as workloads_mod
from repro.shard.replay import build_replay
from repro.shard.shard import EMPTY_STEP_DIGEST
from repro.sim.run import run_scope
from repro.workload.replay import load_schedule, lower, parse_jsonl

from ..conftest import exact_path

SCHEDULES = Path(__file__).resolve().parents[2] / "examples" / "schedules"

SEMANTIC = (
    "machine", "workload", "messages", "msg_digest",
    "events_popped", "results", "t_end", "bytes_by_class",
)


@pytest.fixture
def fabric_nodes(monkeypatch):
    """The local-spec names of every Fabric a shard builds, in build order."""
    built = []

    class CountingFabric(shard_mod.Fabric):
        def __init__(self, engine, config):
            built.append(config.name)
            super().__init__(engine, config)

    monkeypatch.setattr(shard_mod, "Fabric", CountingFabric)
    return built


# -- which shards are built -----------------------------------------------------

def test_llm16_builds_only_hosting_and_faulted_shards(fabric_nodes):
    spec = resolve_machine("fat-tree-512")
    ops = lower(load_schedule(str(SCHEDULES / "llm16.jsonl")))
    job = ClusterJob(spec, "replay", cfg={"ops": ops})
    faults = FaultSchedule.load(str(SCHEDULES / "faults_fattree512.jsonl"))
    with run_scope(faults=faults):
        assert job.built_shards() == [0, 1, 3]  # node 3 hosts no rank
        seq = job.run()
        assert fabric_nodes == [f"fat-tree-512#n{n}" for n in (0, 1, 3)]
        mp = job.run(workers=2)
        with exact_path():
            eager = job.run()
            del fabric_nodes[:]
            ref = job.run_reference()
            assert len(fabric_nodes) == 3
    assert mp.signature() == seq.signature()
    # The eager run is the graph run's pop stream, popped on the host.
    assert eager.step_digests == seq.step_digests
    for field in SEMANTIC:
        assert getattr(ref, field) == getattr(eager, field), field
    steps = seq.step_digests
    assert steps[3].startswith("8a0f7a6655f83033")  # the fault timer's pop
    assert {sid for sid, d in steps.items() if d != EMPTY_STEP_DIGEST} == {0, 1, 3}
    assert len(steps) == seq.shards == spec.n_nodes
    assert seq.per_shard_popped.count(0) == spec.n_nodes - 3


def test_empty_report_is_an_idle_built_shard():
    spec = resolve_machine("fat-tree-32-r2-l2")
    idle = Shard(spec, 2, build_replay, {"ops": {}})
    assert idle.report() == Shard.empty_report(2)


def test_reference_pops_come_from_the_shared_engine():
    """Shard 0 hosts nothing, so its report cannot carry the pop total."""
    lines = [
        '{"schema": "repro.workload.replay/1", "ranks": 24, "name": "far"}',
        '{"rank": 8, "op": "compute", "us": 5.0}',
        '{"rank": 8, "op": "send", "peer": 16, "bytes": 65536, "tag": "x"}',
        '{"rank": 16, "op": "recv", "peer": 8, "tag": "x"}',
        '{"rank": 16, "op": "send", "peer": 9, "bytes": 4096, "tag": "y"}',
        '{"rank": 9, "op": "recv", "peer": 16, "tag": "y"}',
    ]
    ops = lower(parse_jsonl("\n".join(lines)))
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "replay", cfg={"ops": ops})
    assert job.built_shards() == [1, 2]
    with exact_path():
        seq = job.run()
        ref = job.run_reference()
    assert seq.events_popped > 0
    assert seq.per_shard_popped[0] == seq.per_shard_popped[3] == 0
    for field in SEMANTIC:
        assert getattr(ref, field) == getattr(seq, field), field



def test_put_into_an_opless_rank_builds_its_shard():
    """A put needs no matching recv, so rank 24 (node 3) lists no ops yet
    takes rank 8's arrival: its shard is hosted, and every figure equals
    the all-shards-built run's."""
    lines = [
        '{"schema": "repro.workload.replay/1", "ranks": 32, "name": "orphan"}',
        '{"rank": 8, "op": "compute", "us": 5.0}',
        '{"rank": 8, "op": "put", "peer": 24, "bytes": 65536, "class": "pp-activation"}',
    ]
    ops = lower(parse_jsonl("\n".join(lines)))
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "replay", cfg={"ops": ops})
    assert job.built_shards() == [1, 3]
    seq = job.run()
    assert job.run(workers=2).signature() == seq.signature()
    with exact_path():
        ref = job.run_reference()
    for field in SEMANTIC:
        if field != "events_popped":  # the graph run pops fewer host events
            assert getattr(ref, field) == getattr(seq, field), field
    assert seq.per_shard_popped == [0, 3, 0, 1]
    assert seq.t_end == 1.0810720000000001e-05
    assert seq.msg_digest.startswith("235794440f1f532e")
    assert seq.results == {0: [], 1: [(8, 1.0810720000000001e-05)], 2: [], 3: []}
    steps = seq.step_digests
    assert steps[1].startswith("aecbf63e149a8266")
    assert steps[3].startswith("ce590d2c8619f517")
    assert steps[0] == steps[2] == EMPTY_STEP_DIGEST

def _build_orphan_put(shard, cfg):
    """Shard 0 pushes into shard 1, which the workload says it does not host."""
    def orphan():
        src = Buffer.alloc_virtual(64, np.uint8, MemSpace.DEVICE, 0, 0, label="orphan")
        dst = shard.remote(shard.cluster.gpu_base(1), 64, ("orphan",))
        yield shard.put(src, dst, name="orphan-put")

    return [shard.engine.process(orphan(), name=f"orphan{shard.id}")]


@pytest.mark.parametrize("mode", ["sequential", "mp", "reference"])
def test_message_to_unbuilt_shard_raises(monkeypatch, mode):
    monkeypatch.setitem(workloads_mod.WORKLOADS, "orphan", workloads_mod.ShardWorkload(
        _build_orphan_put, {}, hosts=lambda spec, cfg: [0],
    ))
    job = ClusterJob(resolve_machine("fat-tree-32-r2-l2"), "orphan")
    run = {
        "sequential": job.run, "mp": lambda: job.run(workers=2),
        "reference": job.run_reference,
    }[mode]
    with pytest.raises(ClusterError, match=r"orphan-put: .* shard 1\b"):
        run()


# -- the embedded World -----------------------------------------------------------

def test_embedded_world_runs_on_the_shard_fabric(monkeypatch, fabric_nodes):
    worlds = []

    class RecordingWorld(world_mod.World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(world_mod, "World", RecordingWorld)
    spec = resolve_machine("fat-tree-16-n4-l2")
    shard = Shard(spec, 1, workloads_mod.build_allreduce_node,
                  dict(workloads_mod.ALLREDUCE_DEFAULTS))
    (world,) = worlds
    assert world.fabric is shard.fabric and world.engine is shard.engine
    assert fabric_nodes == [shard.local_spec.name]  # no second fabric


def test_faulted_allreduce_node_installs_each_fault_once():
    """The degrade used to be installed twice on node 1: once on the
    shard fabric and once on the embedded World's own fabric.  The
    duplicate timers were the only difference, so the message stream,
    the end time and the results hold, and node 1 pops 8 fewer events."""
    degrade = [
        FaultEvent(1e-6, f"c2c_{way}{g}", "degrade", factor=0.05, node=1)
        for way in ("d2h", "h2d") for g in range(4)
    ]
    job = ClusterJob(
        resolve_machine("fat-tree-16-n4-l2"), "allreduce-node", cfg={"iters": 2},
    )
    with run_scope(faults=FaultSchedule(degrade)):
        seq = job.run()
        mp = job.run(workers=2)
    assert mp.signature() == seq.signature()
    assert seq.msg_digest.startswith("af0d8b9652a7")
    assert seq.t_end == 0.0002624852622222224
    assert seq.results == {
        node: [(node, rank, 10.0) for rank in range(4)] for node in range(4)
    }
    assert seq.per_shard_popped == [1446, 1614, 1446, 1446]
    assert seq.step_digests[1].startswith("a5e8eceb90e4105d")
    healthy = job.run()
    assert seq.step_digests[0] == healthy.step_digests[0]
