"""The "replay" resident shard workload: lowered trace micro-ops per node.

:mod:`repro.workload.replay` validates a JSONL schedule, lowers it to
per-rank micro-op lists (picklable tuples) and owns the one
:func:`~repro.workload.replay.rank_program` that interprets them.  This
build runs that program for one shard's ranks over a transport that adds
only what is remote: cross-shard sends become bridge-priced
``Shard.put`` messages, and cross-shard waits drain the rank's mailbox.
It lives in the shard package — like the halo and allreduce-node builds
— because resident builds are the one place allowed to drive
``shard.engine`` / ``shard.fabric`` directly.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.hw.memory import Buffer, MemSpace


class _ShardLink:
    """Cross-shard transport; same-shard traffic goes through ``local``."""

    def __init__(self, shard, local) -> None:
        self.shard = shard
        self.local = local
        #: (rank, nbytes) -> payload-sized source of a remote put.
        self._srcs: Dict[Tuple[int, int], Any] = {}

    def send(self, rank, i, src_ep, dst_ep, nbytes, cls, key):
        shard = self.shard
        dst = dst_ep[1]
        if shard.owns_gpu(dst):
            yield from self.local.send(rank, i, src_ep, dst_ep, nbytes, cls, key)
            return
        src = self._srcs.get((rank, nbytes))
        if src is None:
            src = self._srcs[(rank, nbytes)] = Buffer.alloc_virtual(
                nbytes, np.uint8, MemSpace.DEVICE, 0, shard.to_local(rank),
                label=f"replay.g{rank}",
            )
        tag = key if key is not None else ("put", rank, i)
        yield shard.put(src, shard.remote(dst, nbytes, tag),
                        traffic_class=cls, name=f"replay.g{rank}.{i}")

    def wait(self, rank, src_rank, key):
        if self.shard.owns_gpu(src_rank):
            return self.local.wait(rank, src_rank, key)
        return self.shard.recv(rank, key)


def _replay_ranks(cfg: dict) -> list:
    """``(rank, micro-ops)`` of every rank with a non-empty op list,
    ascending: the ranks a replay runs anything for."""
    return [(g, my_ops) for g, my_ops in sorted(cfg["ops"].items()) if my_ops]


def replay_hosts(spec, cfg: dict) -> set:
    """The shards a replay uses: the nodes of the ranks
    :func:`build_replay` spawns, plus the node of every rank they send
    or put to.  A put needs no matching recv, so its target may have no
    ops of its own, yet the target's shard must take the arrival."""
    hosts = set()
    for g, my_ops in _replay_ranks(cfg):
        hosts.add(spec.node_of(g))
        hosts.update(spec.node_of(op[1]) for op in my_ops if op[0] == "send")
    return hosts


def build_replay(shard, cfg: dict) -> list:
    """Shard build: replay ``cfg["ops"]`` (*global* GPU id -> micro-ops)
    for the ranks this shard hosts.

    The workload is registered with graph mode on, so an unobserved
    dedicated shard runs this on its private graph engine
    (:attr:`~repro.shard.shard.Shard.run_engine`) with descriptor plans
    cached; timestamps and digests are identical either way.
    """
    from repro.workload.replay import LocalLink, rank_program

    engine = shard.run_engine
    link = _ShardLink(shard, LocalLink(engine, shard.fabric, shard.gpu_base))
    return [
        engine.process(
            rank_program(engine, g, my_ops, link),
            name=f"replay.n{shard.id}.g{g - shard.gpu_base}",
        )
        for g, my_ops in _replay_ranks(cfg)
        if shard.owns_gpu(g)
    ]
