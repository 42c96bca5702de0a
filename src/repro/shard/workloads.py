"""Cluster workloads: build functions that populate one shard with processes.

A workload is a ``build(shard, cfg) -> [Process]`` function, registered in
:data:`WORKLOADS` as a :class:`ShardWorkload`: the build, its default
config, whether its shards run in graph mode, and which shards it hosts.
Builds run once per hosted shard (in every execution mode, including
inside forked workers), so they must be importable module-level
functions and their ``cfg`` values picklable.

Three shapes ship with the package:

``halo``
    A global ring halo exchange with node stride: every GPU pushes
    ``chunks`` chunks per iteration to the same-local-index GPU on the
    next node (always cross-shard) and receives the matching chunks from
    the previous node, plus one same-node face exchange per iteration
    that keeps the local engines dense with events between windows.

``allreduce-node``
    Each shard embeds a node-local :class:`~repro.mpi.world.World` on the
    shard's fabric (the full MPI stack: init, ring allreduce, barrier) and
    rank 0 forwards a digest buffer around the inter-node ring — the
    hierarchical shape of the paper's multi-node partitioned runs.

``replay``
    One shard's slice of a lowered trace-replay schedule
    (:mod:`repro.shard.replay`); the only graph-mode workload.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.shard.replay import build_replay, replay_hosts
from repro.sim.process import Process


def every_node(spec, cfg: dict) -> Iterable[int]:
    """``hosts`` of a workload with resident processes on every node."""
    return range(spec.n_nodes)


class ShardWorkload(NamedTuple):
    """One :data:`WORKLOADS` entry."""

    build: Callable[..., List[Process]]
    defaults: dict
    #: Graph mode: the workload's shards run on private graph engines
    #: (see Shard); its build must spawn on ``shard.run_engine``.
    graph: bool = False
    #: ``hosts(spec, cfg)`` -> the shard ids whose build spawns anything.
    #: A run builds and steps only these (plus any shard a fault names).
    hosts: Callable[..., Iterable[int]] = every_node


def resolve_workload(name: str) -> ShardWorkload:
    """``name`` -> its entry, with a private copy of the defaults;
    raises on unknown names."""
    entry = WORKLOADS.get(name)
    if entry is None:
        from repro.shard.cluster import ClusterError

        known = ", ".join(sorted(WORKLOADS))
        raise ClusterError(f"unknown workload {name!r} (known: {known})")
    return entry._replace(defaults=dict(entry.defaults))


# -- halo ---------------------------------------------------------------------

HALO_DEFAULTS = {
    "iters": 4,
    "chunks": 2,
    "chunk_bytes": 1 << 20,   # 1 MiB per halo chunk
    "face_bytes": 1 << 22,    # 4 MiB same-node face exchange
}


def _halo_rank(shard, local: int, cfg: dict):
    g = shard.to_global(local)
    n = shard.cluster.n_gpus
    stride = shard.n_local_gpus        # ring step = one node (always cross-shard)
    fwd = (g + stride) % n
    back = (g - stride) % n
    chunk_bytes = cfg["chunk_bytes"]
    chunk_src = Buffer.alloc_virtual(
        chunk_bytes, np.uint8, MemSpace.DEVICE, 0, local, label=f"halo{g}"
    )
    peer = (local + 1) % shard.n_local_gpus
    face_src = face_dst = None
    if peer != local:
        face_src = Buffer.alloc_virtual(
            cfg["face_bytes"], np.uint8, MemSpace.DEVICE, 0, local, label=f"face{g}"
        )
        face_dst = Buffer.alloc_virtual(
            cfg["face_bytes"], np.uint8, MemSpace.DEVICE, 0, peer, label=f"face{g}d"
        )
    dataplane = shard.fabric.dataplane
    for it in range(cfg["iters"]):
        sends = [
            shard.put(
                chunk_src,
                shard.remote(fwd, chunk_bytes, ("halo", it, c, g)),
                name=f"halo{g}.{it}.{c}",
            )
            for c in range(cfg["chunks"])
        ]
        if face_src is not None:
            # Same-node traffic routes through the local link graph as
            # usual; only the bridge-claimed remote puts leave the shard.
            yield dataplane.put(
                face_src, face_dst, traffic_class="halo-face", name=f"face{g}.{it}"
            )
        for c in range(cfg["chunks"]):
            yield shard.recv(g, ("halo", it, c, back))
        for ev in sends:
            yield ev
    return (g, shard.engine.now)


def build_halo(shard, cfg: dict) -> List[Process]:
    return [
        shard.engine.process(
            _halo_rank(shard, local, cfg),
            name=f"halo.n{shard.id}.g{local}",
        )
        for local in range(shard.n_local_gpus)
    ]


# -- allreduce-node -----------------------------------------------------------

ALLREDUCE_DEFAULTS = {
    "iters": 2,
    "elems": 1 << 12,          # intra-node allreduce payload (float64 count)
    "ring_bytes": 1 << 16,     # inter-node rank-0 digest forward
}


def build_allreduce_node(shard, cfg: dict) -> List[Process]:
    world = shard.embed_world()
    n_shards = shard.cluster.n_nodes
    right = (shard.id + 1) % n_shards
    iters, elems, ring_bytes = cfg["iters"], cfg["elems"], cfg["ring_bytes"]

    def main(ctx):
        send = ctx.gpu.alloc(elems, fill=float(ctx.rank + 1))
        recv = ctx.gpu.alloc(elems, fill=0.0)
        ring = ctx.gpu.alloc_virtual(ring_bytes, np.uint8, label=f"ring{shard.id}")
        for it in range(iters):
            yield from ctx.comm.allreduce(send, recv)
            if ctx.rank == 0:
                # Rank 0 carries the node's digest one hop around the
                # inter-node ring, then waits for the left neighbour's.
                sent = shard.put(
                    ring,
                    shard.remote(
                        shard.cluster.gpu_base(right), ring_bytes, ("ring", it)
                    ),
                    name=f"ring{shard.id}.{it}",
                )
                yield shard.recv(shard.gpu_base, ("ring", it))
                yield sent
            yield from ctx.comm.barrier()
        return (shard.id, ctx.rank, float(recv.data[0]))

    return world.launch(main, nprocs=shard.n_local_gpus)


#: name -> entry; :func:`resolve_workload` is the lookup.
WORKLOADS: Dict[str, ShardWorkload] = {
    "halo": ShardWorkload(build_halo, HALO_DEFAULTS),
    "allreduce-node": ShardWorkload(build_allreduce_node, ALLREDUCE_DEFAULTS),
    "replay": ShardWorkload(build_replay, {"ops": {}}, graph=True,
                            hosts=replay_hosts),
}
