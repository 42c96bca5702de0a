"""The single rank-launch choke point for world-mode workloads.

Every workload that runs MPI-style rank coroutines goes through
:func:`run_ranks` — the only place outside :mod:`repro.mpi` that builds a
:class:`~repro.mpi.world.World` (the ``module-ownership`` analyzer rule
enforces this).  It does exactly what the hand-rolled drivers used to do —
construct the world, run the ranks, hand back the results — so every
counter and timestamp stays pinned.  The world is closed before
:func:`run_ranks` returns: :class:`RankRun` carries the end time and the
dataplane ledger as values, so a finished job's buffers are freed by
reference counting rather than held until a collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.hw.spec.schema import MachineSpec
from repro.mpi.world import World


@dataclass
class RankRun:
    """One completed rank job, as values: the world itself is closed."""

    #: Per-rank return values, in rank order.
    results: List[Any]
    #: Simulated time at which the last rank finished.
    t_end: float
    #: Per-traffic-class ledger snapshot of the run's dataplane.
    class_bytes: dict


def run_ranks(
    machine: MachineSpec,
    main: Callable,
    nprocs: Optional[int] = None,
    args: Sequence[Any] = (),
) -> RankRun:
    """Build one World on ``machine``, run ``nprocs`` ranks of ``main``, close it."""
    with World(machine) as world:
        results = world.run(main, nprocs=nprocs, args=args)
        return RankRun(
            results=results,
            t_end=world.engine.now,
            class_bytes=world.fabric.dataplane.ledger.as_dict(),
        )
