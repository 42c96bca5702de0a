"""One replay matcher: a Schedule is matched when it is built.

Building a :class:`Schedule` validates it, by any path: parsed, generated
or constructed by hand.  The matches validation makes are the ones
``lower()`` keys its micro-ops by, and every key feeds a replay's
rendezvous and so its digests and counters.  The lowering pin hashes
``lower()`` output over a fixed corpus that covers each input path (JSONL
file, the four generators, an NCCL log) and every step kind: tagged and
wildcard recvs, an unevenly split ``partitioned`` send, ``put``,
``xfer``, ``barrier`` and group ``allreduce``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.workload.generators import (
    expert_parallel_schedule,
    jacobi_schedule,
    llm_schedule,
    parameter_server_schedule,
    parse_nccl_log,
)
from repro.workload.replay import (
    ReplayError,
    Schedule,
    Step,
    load_schedule,
    lower,
    parse_jsonl,
)

SCHEDULES = Path(__file__).resolve().parents[2] / "examples" / "schedules"

NCCL_LOG = """
0 Compute us=12.5
0 AllReduce bytes=4000 group=0,2
2 AllReduce bytes=4000 group=0,2
1 Broadcast root=1 bytes=3000 class=bc
0 Broadcast root=1 bytes=3000 class=bc
2 Broadcast root=1 bytes=3000 class=bc
0 Send peer=2 bytes=100 tag=t
2 Recv peer=0 tag=t
0 AllReduce bytes=7
1 AllReduce bytes=7
2 AllReduce bytes=7
"""

MIXED = "\n".join([
    '{"schema": "repro.workload.replay/1", "ranks": 4, "name": "mixed"}',
    '{"rank": 0, "op": "compute", "us": 1.5, "id": "c0"}',
    '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "pp"}',
    '{"rank": 0, "op": "send", "peer": 1, "bytes": 100, "tag": 7}',
    '{"rank": 1, "op": "recv", "peer": 0, "tag": 7}',
    '{"rank": 1, "op": "recv", "peer": 0, "tag": "a", "bytes": 4096}',
    '{"rank": 2, "op": "partitioned", "peer": 3, "bytes": 10, "partitions": 4, "tag": "p"}',
    '{"rank": 2, "op": "send", "peer": 3, "bytes": 64, "tag": "q", "class": "w"}',
    '{"rank": 2, "op": "partitioned", "peer": 3, "bytes": 3, "partitions": 5}',
    '{"rank": 3, "op": "recv", "peer": 2, "tag": "*"}',
    '{"rank": 3, "op": "recv", "peer": 2, "tag": "*", "bytes": 64}',
    '{"rank": 3, "op": "recv", "peer": 2, "tag": "*"}',
    '{"rank": 0, "op": "put", "peer": 2, "bytes": 512, "class": "rdma"}',
    '{"rank": 1, "op": "xfer", "bytes": 256, "src_gpu": 1, "dst_node": 0}',
    '{"rank": 0, "op": "allreduce", "bytes": 1000, "group": [0, 2]}',
    '{"rank": 2, "op": "allreduce", "bytes": 1000, "group": [2, 0]}',
    '{"rank": 1, "op": "allreduce", "bytes": 5, "group": [1]}',
    '{"rank": 0, "op": "barrier", "deps": ["c0"]}',
    '{"rank": 1, "op": "barrier"}',
    '{"rank": 2, "op": "barrier"}',
    '{"rank": 3, "op": "barrier"}',
    '{"rank": 3, "op": "barrier", "class": "sync"}',
    '{"rank": 2, "op": "barrier", "class": "sync"}',
    '{"rank": 1, "op": "barrier", "class": "sync"}',
    '{"rank": 0, "op": "barrier", "class": "sync"}',
    '{"rank": 3, "op": "allreduce", "bytes": 77, "group": [1, 3], "class": "g"}',
    '{"rank": 1, "op": "allreduce", "bytes": 77, "group": [3, 1], "class": "g"}',
    '{"rank": 0, "op": "send", "peer": 1, "bytes": 9, "tag": "a", "class": "pp"}',
    '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
    '{"rank": 2, "op": "allreduce", "bytes": 33, "group": [0, 2]}',
    '{"rank": 0, "op": "allreduce", "bytes": 33, "group": [0, 2]}',
]) + "\n"

CORPUS = {
    "llm16": lambda: load_schedule(str(SCHEDULES / "llm16.jsonl")),
    "llm": lambda: llm_schedule(dp=2, tp=2, pp=2, layers=4, microbatches=2, steps=2),
    "jacobi": lambda: jacobi_schedule(py=3, px=2, iters=3, halo_bytes=1000),
    "moe": lambda: expert_parallel_schedule(ranks=5, steps=2, token_bytes=3333),
    "ps": lambda: parameter_server_schedule(workers=3, servers=2, steps=2, grad_bytes=1001),
    "nccl": lambda: parse_nccl_log(NCCL_LOG, source="pin.log"),
    "mixed": lambda: parse_jsonl(MIXED, source="mixed.jsonl"),
}

#: SHA-256 of ``repr(sorted(lower(schedule).items()))`` per corpus entry.
PINS = {
    "llm16": "35198425f2065e021e212bcad0cf6f8714c05b912dd6ae41fcea5fed8b5d1cfb",
    "llm": "f36449c9487c99b9e7eb5ba57d51be60487ddb7b496a2c3c53fb9299ef108a5a",
    "jacobi": "b029e0d08de92c73f27a99432f7534e5b420cfa03e613a009f671b0124e471a2",
    "moe": "e291b107b4baf16d1ae6e10685fb50ee64549430e3504a941dce5a155053f084",
    "ps": "a834ae2b18346370ff96bac71f898135b59769df6aefa8bc468ed68490599a86",
    "nccl": "b67053137cb0343172ba29006bcb781fadef2ae8d0a7bf7b62caad4fba5169d2",
    "mixed": "6193412c046fd951218514b75c0ea030b1d6551de1f68c414e8c6165ad8cee00",
}


def lowered_digest(sched) -> str:
    return hashlib.sha256(repr(sorted(lower(sched).items())).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lowered_ops_pinned(name):
    assert lowered_digest(CORPUS[name]()) == PINS[name]


# -- construction validates ---------------------------------------------------

def _step(rank, op, line, **fields):
    return Step(rank=rank, op=op, line=line, fields=fields)


def test_hand_built_unmatched_recv_fails_at_construction():
    with pytest.raises(ReplayError,
                       match=r"^hand\.jsonl:3: channel 0->1 tag 0: 0 send\(s\) but 1 recv"):
        Schedule(ranks=2, steps=[_step(0, "compute", 2, us=1.0), _step(1, "recv", 3, peer=0)],
                 source="hand.jsonl")


def test_hand_built_unmatched_send_fails_at_construction():
    with pytest.raises(ReplayError,
                       match=r"^hand\.jsonl:2: channel 0->1 tag 'a': 1 send\(s\) but 0 recv"):
        Schedule(ranks=2, steps=[_step(0, "send", 2, peer=1, bytes=8, tag="a")],
                 source="hand.jsonl")


def test_wildcard_checks_and_lowering_use_one_order():
    # Out-of-order source lines (possible only when built by hand): the
    # wildcard recv states the size of the send that comes first in the
    # schedule, and it waits on that send's key.
    steps = [_step(0, "send", 9, peer=1, bytes=8, tag="a"),
             _step(0, "send", 2, peer=1, bytes=16, tag="b"),
             _step(1, "recv", 3, peer=0, tag="*", bytes=8),
             _step(1, "recv", 4, peer=0, tag="*", bytes=16)]
    ops = lower(Schedule(ranks=2, steps=steps))
    assert ops[1] == [("wait", 0, ("p", 0, 1, "a", 0, 0)), ("wait", 0, ("p", 0, 1, "b", 0, 0))]
