"""Binomial-tree broadcast schedule (all-NOP — no compute component).

The paper notes (Section II-B3) that a partitioned Bcast with a
binary-tree algorithm "will consist of only NOPs"; collectives without a
reduction never pay the in-collective kernel-launch + stream-sync cost
that separates the partitioned allreduce from NCCL (Section VI-B).

Round structure (virtual rank v = (rank - root) mod P, R = ceil(log2 P)
rounds): v receives from its parent in round ``j = position of v's
highest set bit``; it forwards to child ``v + 2^k`` in every round
``k > j`` where that child exists.  Every user partition pipelines through
the tree independently.
"""

from __future__ import annotations

import math

from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import NOP
from repro.pcoll.schedule import Schedule, Step


def binomial_bcast_schedule(rank: int, n_ranks: int, root: int = 0) -> Schedule:
    """Build rank ``rank``'s binomial broadcast schedule."""
    if n_ranks < 1:
        raise MpiUsageError("need at least 1 rank")
    if not 0 <= rank < n_ranks or not 0 <= root < n_ranks:
        raise MpiUsageError("rank/root out of range")
    v = (rank - root) % n_ranks
    rounds = max(1, math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0

    recv_round = -1  # root never receives
    if v != 0:
        recv_round = v.bit_length() - 1  # highest set bit position

    steps = []
    for k in range(rounds):
        incoming = ()
        outgoing = ()
        if k == recv_round:
            parent_v = v & ~(1 << k)
            incoming = ((parent_v + root) % n_ranks,)
        if k > recv_round and v < (1 << k):  # holders double each round
            child_v = v + (1 << k)
            if child_v < n_ranks:
                outgoing = ((child_v + root) % n_ranks,)
        steps.append(Step(incoming, 0, NOP, outgoing, 0))
    return Schedule(rank, n_ranks, n_chunks=1, steps=tuple(steps), name="binomial_bcast",
                    requires_local_contribution=(v == 0))


def binomial_reduce_schedule(rank: int, n_ranks: int, op, root: int = 0) -> Schedule:
    """Binomial-tree reduce to ``root``: the bcast tree run backwards.

    Virtual rank v sends its (partially reduced) contribution to
    ``v - 2^k`` in round k, where k is v's lowest set bit; before that it
    receives-and-reduces from child ``v + 2^j`` in every round ``j < k``
    where that child exists.  Rank 0 (the root) only receives.
    """
    if n_ranks < 1:
        raise MpiUsageError("need at least 1 rank")
    if not 0 <= rank < n_ranks or not 0 <= root < n_ranks:
        raise MpiUsageError("rank/root out of range")
    v = (rank - root) % n_ranks
    rounds = max(1, math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0
    send_round = rounds  # root never sends
    if v != 0:
        send_round = (v & -v).bit_length() - 1  # lowest set bit

    steps = []
    for k in range(rounds):
        incoming = ()
        outgoing = ()
        if k < send_round:
            child_v = v + (1 << k)
            if child_v < n_ranks:
                incoming = ((child_v + root) % n_ranks,)
        elif k == send_round:
            parent_v = v & ~(1 << k)
            outgoing = ((parent_v + root) % n_ranks,)
        steps.append(Step(incoming, 0, op if incoming else NOP, outgoing, 0))
    return Schedule(rank, n_ranks, n_chunks=1, steps=tuple(steps), name="binomial_reduce")


def flat_reduce_schedule(rank: int, n_ranks: int, op, root: int = 0) -> Schedule:
    """Single-step linear reduce: the root's one step has *all* other
    ranks as incoming neighbours — exercising Algorithm 2's multi-
    neighbour arrival loop in one step."""
    if n_ranks < 1:
        raise MpiUsageError("need at least 1 rank")
    if not 0 <= rank < n_ranks or not 0 <= root < n_ranks:
        raise MpiUsageError("rank/root out of range")
    if rank == root:
        others = tuple(r for r in range(n_ranks) if r != root)
        steps = (Step(others, 0, op, (), 0),) if others else ()
    else:
        steps = (Step((), 0, NOP, (root,), 0),)
    return Schedule(rank, n_ranks, n_chunks=1, steps=steps, name="flat_reduce")
