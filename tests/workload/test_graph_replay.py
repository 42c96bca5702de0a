"""Graph-captured replay: A/B equivalence with eager, wildcard recv tags."""

import pytest

from repro.hw.faults import FaultEvent, FaultSchedule
from repro.workload.base import canonical_json, sha256_hex
from repro.workload.generators import jacobi_schedule, llm_schedule
from repro.workload.replay import ReplayError, ReplayWorkload, parse_jsonl

from ..conftest import exact_path

HEADER = '{"schema": "repro.workload.replay/1", "ranks": %d, "name": "t"}\n'


def _sched(ranks, *lines):
    return parse_jsonl(HEADER % ranks + "\n".join(lines) + "\n", source="t.jsonl")


# -- wildcard recv tags -------------------------------------------------------

def test_wildcard_tag_send_side_rejected():
    with pytest.raises(ReplayError, match="recv-only"):
        _sched(2, '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "*"}')


def test_wildcard_and_tagged_recvs_cannot_mix():
    with pytest.raises(ReplayError, match="ambiguous"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "b"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        )


def test_wildcard_count_mismatch_rejected():
    with pytest.raises(ReplayError, match="counts must match"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        )


def test_wildcard_bytes_disagreement_rejected():
    with pytest.raises(ReplayError, match="matched\nsend|matched send"):
        _sched(
            2,
            '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}',
            '{"rank": 1, "op": "recv", "peer": 0, "tag": "*", "bytes": 16}',
        )


def test_wildcard_matches_sends_in_schedule_order():
    """Wildcard recvs replay bit-identically to the tagged schedule."""
    tagged = _sched(
        2,
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "w"}',
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 8192, "tag": "b", "class": "w"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "b"}',
    )
    wild = _sched(
        2,
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "w"}',
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 8192, "tag": "b", "class": "w"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "*"}',
    )
    a = ReplayWorkload(tagged).run(machine="gh200-1x4")
    b = ReplayWorkload(wild).run(machine="gh200-1x4")
    assert a.extra["t_end"] == b.extra["t_end"]
    assert a.class_bytes == b.class_bytes
    assert a.events_popped == b.events_popped


def test_wildcard_works_in_cluster_mode():
    wild = _sched(
        8,
        *[f'{{"rank": {r}, "op": "send", "peer": {(r + 1) % 8}, '
          f'"bytes": 65536, "tag": "ring", "class": "ring"}}' for r in range(8)],
        *[f'{{"rank": {r}, "op": "recv", "peer": {(r - 1) % 8}, "tag": "*"}}'
          for r in range(8)],
    )
    tagged = _sched(
        8,
        *[f'{{"rank": {r}, "op": "send", "peer": {(r + 1) % 8}, '
          f'"bytes": 65536, "tag": "ring", "class": "ring"}}' for r in range(8)],
        *[f'{{"rank": {r}, "op": "recv", "peer": {(r - 1) % 8}, "tag": "ring"}}'
          for r in range(8)],
    )
    a = ReplayWorkload(tagged).run(machine="gh200-2x4")
    b = ReplayWorkload(wild).run(machine="gh200-2x4")
    assert a.digests["msg"] == b.digests["msg"]
    assert a.events_popped == b.events_popped


# -- jacobi_schedule generator ------------------------------------------------

def test_jacobi_schedule_validates_and_shapes():
    sched = jacobi_schedule(py=2, px=2, iters=3)
    assert sched.ranks == 4
    assert sched.name == "jacobi-2x2"
    # interior exchanges: each rank has 2 neighbours on a 2x2 torus-free grid
    sends = [s for s in sched.steps if s.op == "send"]
    recvs = [s for s in sched.steps if s.op == "recv"]
    assert len(sends) == len(recvs) == 3 * 8


def test_jacobi_schedule_deterministic_digest():
    assert (jacobi_schedule(py=4, px=2, iters=10).digest
            == jacobi_schedule(py=4, px=2, iters=10).digest)
    assert (jacobi_schedule(py=4, px=2, iters=10).digest
            != jacobi_schedule(py=4, px=2, iters=9).digest)


# -- A/B equivalence: world mode ----------------------------------------------

def _world_run(graphs):
    wl = ReplayWorkload(llm_schedule(dp=1, tp=2, pp=2, microbatches=2))
    if graphs:
        return wl.run(machine="gh200-1x4")
    with exact_path():
        return wl.run(machine="gh200-1x4")


def test_world_graph_replay_bit_identical():
    on = _world_run(graphs=True)
    off = _world_run(graphs=False)
    assert on.mode == off.mode == "world"
    assert on.extra["t_end"] == off.extra["t_end"]
    assert on.class_bytes == off.class_bytes
    assert on.digests == off.digests
    g = on.extra["graphs"]
    assert "graphs" not in off.extra
    assert g["graph_launches"] == 1
    # every simulated pop moved off the host heap, none were lost
    assert g["events_graphed"] == off.events_popped
    assert g["captured_plans"] > 0 and g["replayed_descriptors"] > 0
    # ISSUE acceptance: >= 3x fewer host pops per replayed iteration
    assert on.events_popped * 3 <= off.events_popped


# -- pinned world-mode outputs ------------------------------------------------

def _mix(a, b, c, d, ranks):
    """Every world-mode op kind among ranks a..d: send, wildcard recv,
    put, partitioned, xfer (to host and, off-node, to a GPU), allreduce
    and barrier."""
    group = f"[{a}, {b}, {c}, {d}]"
    coll = [f'{{"rank": {r}, "op": "{op}", {extra}"group": {group}}}'
            for op, extra in (("allreduce", '"bytes": 1048576, '), ("barrier", ""))
            for r in (a, b, c, d)]
    return _sched(
        ranks,
        f'{{"rank": {a}, "op": "compute", "us": 5}}',
        f'{{"rank": {a}, "op": "send", "peer": {b}, "bytes": 65536, "tag": "t", "class": "x"}}',
        f'{{"rank": {b}, "op": "recv", "peer": {a}, "tag": "*"}}',
        f'{{"rank": {b}, "op": "put", "peer": {c}, "bytes": 4096}}',
        f'{{"rank": {c}, "op": "partitioned", "peer": {d}, "bytes": 100001, '
        '"partitions": 7, "class": "p"}',
        f'{{"rank": {d}, "op": "recv", "peer": {c}}}',
        f'{{"rank": {d}, "op": "xfer", "src_gpu": {d}, "dst_node": 0, '
        '"bytes": 8192, "class": "h"}',
        f'{{"rank": {a}, "op": "xfer", "src_gpu": {a}, "dst_gpu": {ranks - 1}, '
        '"bytes": 8192, "class": "h"}',
        *coll,
    )


#: name -> (schedule factory, run params, t_end, sha256 of the canonical
#: class_bytes ledger, series digest), recorded before the world-mode
#: interpreter and the shard interpreter became one rank program.
WORLD_PINS = {
    "llm-1x4": (
        lambda: llm_schedule(dp=1, tp=2, pp=2, microbatches=2),
        {"machine": "gh200-1x4"}, 0.0007540861600000002,
        "d88b6e97893688decd37c201b84384ade2f1dc0c01158bf9660e261d67f2d5ce",
        "6dd1b03f0fea0791837351572782e9309212a49218a0f24e682f43899eb0ab2e",
    ),
    "jacobi-multi": (
        lambda: jacobi_schedule(py=2, px=2, iters=3, halo_bytes=8 << 20),
        {"machine": "gh200-1x4", "policy": "multi"}, 9.202068e-05,
        "d201712558a3e663ed26a3fbcd10003ddb721f33e511494d76318dbf3f7ec893",
        "41a50f554b98c4e94416588c42a0f6245f5053f61fd5aec795bd700b21561384",
    ),
    "mix-1x4": (
        lambda: _mix(0, 1, 2, 3, ranks=4), {"machine": "gh200-1x4"},
        6.307071777777776e-05,
        "935218a2fddc24e6b7df1fecf4e8326bd3a35eefe90502a0473ee1a4226dec18",
        "334c0dca595864a5808ebf427190795a1e1b2350106d2b0b17d0cd2291287cf4",
    ),
    "mix-2x4": (
        lambda: _mix(2, 4, 3, 6, ranks=8), {"machine": "gh200-2x4"},
        0.00010367138000000004,
        "a8b67492f37512a5e4c3f1b2ba275de0929f1722db4147f7157b7899650aea34",
        "2c2851216f376eb55c4b4f5059c128b066efc0e4eaf4bbca468731554ec8f223",
    ),
}


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "exact"])
@pytest.mark.parametrize("name", sorted(WORLD_PINS))
def test_world_replay_outputs_pinned(name, fast):
    make, params, t_end, ledger, series = WORLD_PINS[name]
    wl = ReplayWorkload(make())
    if fast:
        res = wl.run(**params)
    else:
        with exact_path():
            res = wl.run(**params)
    assert res.mode == "world"
    assert res.extra["t_end"] == t_end
    assert sha256_hex(canonical_json(res.class_bytes)) == ledger
    assert res.digests["series"] == series
    assert res.digests["schedule"] == wl.schedule.digest
    if fast:
        assert res.events_popped == 1   # the one host graph-launch event


# -- A/B equivalence: cluster mode --------------------------------------------

def _cluster_run(graphs, shards=None, policy=None):
    wl = ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10))
    if graphs:
        return wl.run(machine="gh200-2x4", shards=shards, policy=policy)
    with exact_path():
        return wl.run(machine="gh200-2x4", shards=shards, policy=policy)


def test_cluster_graph_replay_bit_identical():
    on = _cluster_run(graphs=True)
    off = _cluster_run(graphs=False)
    assert on.digests == off.digests               # msg + per-shard step hashes
    assert on.class_bytes == off.class_bytes
    assert (on.extra["signature"]["t_end"]
            == off.extra["signature"]["t_end"])    # bit-identical clock
    g = on.extra["graphs"]
    assert g["events_graphed"] == off.events_popped
    assert g["graph_launches"] > 0
    assert on.events_popped * 3 <= off.events_popped


def test_cluster_graph_replay_shards_bit_identical():
    seq = _cluster_run(graphs=True)
    par = _cluster_run(graphs=True, shards=2)
    assert seq.mode == "sequential" and par.mode == "mp"
    assert seq.digests == par.digests
    assert seq.events_popped == par.events_popped
    assert seq.extra["graphs"] == par.extra["graphs"]


def test_cluster_shards_no_graphs_still_identical():
    seq = _cluster_run(graphs=False)
    par = _cluster_run(graphs=False, shards=2)
    assert seq.digests == par.digests
    assert seq.events_popped == par.events_popped


def test_cluster_replay_digest_invariant_across_all_knobs():
    """One digest set on the fast path (coalescing + graph replay) and the
    exact path (observed: neither) under the multi-path policy: the fast
    paths and the striping policy must never change what the simulation
    computes (DESIGN.md §11, §16)."""
    fast = _cluster_run(graphs=True, policy="multi")
    exact = _cluster_run(graphs=False, policy="multi")
    assert fast.extra["graphs"]["graph_launches"] > 0
    assert exact.extra["graphs"]["graph_launches"] == 0
    assert exact.digests == fast.digests
    assert exact.class_bytes == fast.class_bytes
    assert (exact.extra["signature"]["t_end"]
            == fast.extra["signature"]["t_end"])


def test_cluster_graph_replay_under_fault_matches_every_mode():
    """A node-scoped link loss lands mid-run on a graph-mode shard: the
    fault timers live on the graph engine, so the fast path, the exact
    path and --shards 2 see the same perturbed run."""
    healthy = _cluster_run(graphs=True)
    t = healthy.extra["signature"]["t_end"] / 2
    faults = FaultSchedule([FaultEvent(t, "nvl0->1", "down", node=1)])
    wl = ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10))
    fast = wl.run(machine="gh200-2x4", faults=faults)
    par = wl.run(machine="gh200-2x4", faults=faults, shards=2)
    with exact_path():
        exact = wl.run(machine="gh200-2x4", faults=faults)
    assert fast.extra["graphs"]["graph_launches"] > 0
    assert exact.extra["graphs"]["graph_launches"] == 0
    for other in (exact, par):
        assert other.digests == fast.digests
        assert other.extra["signature"]["t_end"] == fast.extra["signature"]["t_end"]
    assert fast.digests["msg"] != healthy.digests["msg"]
