"""The single rank-launch choke point for world-mode workloads.

Every workload that runs MPI-style rank coroutines goes through
:func:`run_ranks` — the only place outside :mod:`repro.mpi` that builds a
:class:`~repro.mpi.world.World` (the ``module-ownership`` analyzer rule
enforces this).  It does exactly what the hand-rolled drivers used to do —
construct the world, run the ranks, hand back the results — so every
counter and timestamp stays pinned; it additionally keeps the world
around so callers can read the dataplane ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.hw.topology import MachineLike
from repro.mpi.world import World


@dataclass
class RankRun:
    """One completed rank job: per-rank return values + the world."""

    world: World
    results: List[Any]

    @property
    def t_end(self) -> float:
        return self.world.engine.now

    @property
    def class_bytes(self) -> dict:
        """Per-traffic-class ledger snapshot for the run's dataplane."""
        return self.world.fabric.dataplane.ledger.as_dict()


def run_ranks(
    machine: MachineLike,
    main: Callable,
    nprocs: Optional[int] = None,
    args: Sequence[Any] = (),
    cost=None,
) -> RankRun:
    """Build one World on ``machine`` and run ``nprocs`` ranks of ``main``."""
    world = World(machine, cost=cost)
    results = world.run(main, nprocs=nprocs, args=args)
    return RankRun(world=world, results=results)
