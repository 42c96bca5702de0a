"""Recursive-doubling allreduce schedule (extension algorithm).

The paper fixes the Ring algorithm "to maximize bandwidth for large
messages" (Section VI-B); recursive doubling is the classic latency-
optimal alternative for small messages: ``log2(P)`` steps, each
exchanging the *entire* working buffer with partner ``rank XOR 2^k`` and
reducing.  Expressing it in the same generic ``(I, R, op, O, A)`` schedule
demonstrates the paper's schedule-generality argument, and the ablation
bench shows the textbook ring/RD crossover.

Power-of-two communicator sizes only (the standard restriction).
"""

from __future__ import annotations

from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, SUM
from repro.pcoll.schedule import Schedule, Step


def recursive_doubling_allreduce_schedule(
    rank: int, n_ranks: int, op: MpiOp = SUM
) -> Schedule:
    """Build rank ``rank``'s recursive-doubling schedule."""
    if n_ranks < 2:
        raise MpiUsageError("recursive doubling needs at least 2 ranks")
    if n_ranks & (n_ranks - 1):
        raise MpiUsageError(
            f"recursive doubling requires a power-of-two size, got {n_ranks}"
        )
    if not 0 <= rank < n_ranks:
        raise MpiUsageError(f"rank {rank} out of range for P={n_ranks}")
    steps = []
    k = 0
    while (1 << k) < n_ranks:
        partner = rank ^ (1 << k)
        steps.append(Step((partner,), 0, op, (partner,), 0))
        k += 1
    return Schedule(
        rank, n_ranks, n_chunks=1, steps=tuple(steps), name="recursive_doubling"
    )
