"""Fault events on sharded machines: mode parity and scoped targeting."""

import pytest

from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.spec.generators import resolve_machine
from repro.hw.topology import fabric_settings
from repro.shard import ClusterJob
from repro.workload.registry import resolve_spec

MACHINE = "fat-tree-32-r2-l2"
CFG = {"iters": 2, "chunks": 2, "chunk_bytes": 1 << 16, "face_bytes": 1 << 16}


def _halo(shards=None, faults=None):
    return resolve_spec("halo").run(
        machine=MACHINE, shards=shards, faults=faults, **CFG,
    )


@pytest.fixture(scope="module")
def healthy():
    return _halo()


def _mid_run_schedule(healthy, node=1):
    t = healthy.extra["signature"]["t_end"] / 2
    return FaultSchedule([FaultEvent(t, "nvl0->1", "down", node=node)])


def test_faulted_run_completes_with_different_digests(healthy):
    faulted = _halo(faults=_mid_run_schedule(healthy))
    assert faulted.digests != healthy.digests
    # the detour may be absorbed off the inter-node critical path, so
    # t_end can only move one way; the digests above prove it landed
    assert faulted.extra["signature"]["t_end"] >= healthy.extra["signature"]["t_end"]
    # byte totals are conserved: the detour changes timing, not payloads
    assert faulted.class_bytes == healthy.class_bytes


def test_faulted_sharded_matches_faulted_sequential(healthy):
    sched = _mid_run_schedule(healthy)
    seq = _halo(faults=sched)
    mp = _halo(shards=2, faults=sched)
    assert mp.digests == seq.digests
    assert mp.events_popped == seq.events_popped
    assert mp.extra["signature"] == seq.extra["signature"]


def test_fault_scoping_targets_one_node(healthy):
    """The same link name exists on every node; a node-scoped event must
    perturb only that node's fabric, identically in both modes."""
    sched = _mid_run_schedule(healthy, node=3)
    seq = _halo(faults=sched)
    mp = _halo(shards=2, faults=sched)
    assert seq.digests != healthy.digests
    assert mp.digests == seq.digests


def test_restore_heals_the_fabric(healthy):
    t_end = healthy.extra["signature"]["t_end"]
    down_only = FaultSchedule([
        FaultEvent(t_end / 4, "nvl0->1", "down", node=1),
    ])
    down_up = FaultSchedule([
        FaultEvent(t_end / 4, "nvl0->1", "down", node=1),
        FaultEvent(t_end / 2, "nvl0->1", "restore", node=1),
    ])
    a = _halo(faults=down_only)
    b = _halo(faults=down_up)
    assert a.digests != healthy.digests
    assert b.digests != a.digests
    assert b.extra["signature"]["t_end"] <= a.extra["signature"]["t_end"]


def test_reference_mode_scopes_embedded_world_faults():
    """allreduce-node embeds a World per shard; on run_reference's shared
    engine its fabric must still install only its own node's events, so
    all three drivers agree on the faulted digest."""
    degrade = [
        FaultEvent(1e-6, f"c2c_{way}{g}", "degrade", factor=0.05, node=1)
        for way in ("d2h", "h2d") for g in range(4)
    ]
    job = ClusterJob(
        resolve_machine("fat-tree-16-n4-l2"), "allreduce-node", cfg={"iters": 2},
    )
    with fabric_settings(faults=FaultSchedule(degrade)):
        seq = job.run_sequential()
        mp = job.run(workers=2)
        ref = job.run_reference()
    assert seq.msg_digest.startswith("af0d8b9652a7")
    assert mp.msg_digest == seq.msg_digest
    assert ref.msg_digest == seq.msg_digest
    assert job.run_sequential().msg_digest.startswith("acd291cf3598")  # healthy


def test_healthy_run_unperturbed_after_faulted_runs(healthy):
    """No ambient state leaks: a fault-free run after faulted ones is
    bit-identical to the module baseline."""
    again = _halo()
    assert again.digests == healthy.digests
    assert again.extra["signature"] == healthy.extra["signature"]
