"""The World: an ``mpiexec`` that runs rank coroutines in one simulation.

``World`` builds the engine, fabric, and one :class:`~repro.cuda.Device`
per GPU, then :meth:`World.run` launches ``nprocs`` rank processes (one per
GPU, rank *r* on GPU *r* — matching the paper's placement where ranks 0-3
and 4-7 share nodes) and runs the simulation until every rank returns.

Application main functions are generators::

    def main(ctx):                       # ctx: RankCtx
        comm = ctx.comm
        yield from comm.barrier()
        return ctx.rank

    results = World(ONE_NODE).run(main, nprocs=4)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cuda.device import Device
from repro.cuda.timing import CostModel
from repro.hw.params import PAPER_TESTBED
from repro.hw.topology import Fabric, MachineLike
from repro.mpi.comm import CommGroup, Communicator
from repro.mpi.errors import MpiUsageError
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Engine
from repro.sim.events import AllOf
from repro.sim.resources import Counter
from repro.ucx.context import WorkerAddress


@dataclass
class RankCtx:
    """Everything a rank's main function needs."""

    rank: int
    size: int
    world: "World"
    mpi: MpiRuntime
    gpu: Device
    comm: Communicator

    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def now(self) -> float:
        return self.world.engine.now

    @property
    def params(self):
        return self.mpi.params


class _SplitSlot:
    """Collects one split round's (color, key) submissions."""

    def __init__(self, world: "World", expected: int) -> None:
        self.world = world
        self.expected = expected
        self._submissions: Dict[int, tuple] = {}  # parent rank -> (color, key, world_rank)
        self._groups: Optional[Dict[int, CommGroup]] = None

    def submit(self, parent_rank: int, color: int, key: int, world_rank: int) -> None:
        self._submissions[parent_rank] = (color, key, world_rank)

    def group_for(self, color: int) -> Optional[CommGroup]:
        if len(self._submissions) != self.expected:
            raise MpiUsageError(
                "comm split used before all members submitted (missing barrier?)"
            )
        if self._groups is None:
            by_color: Dict[int, list] = {}
            for prank, (c, key, wrank) in self._submissions.items():
                if c >= 0:
                    by_color.setdefault(c, []).append((key, prank, wrank))
            self._groups = {}
            for c, members in by_color.items():
                members.sort()  # by key, then parent rank (MPI tie-break)
                self._groups[c] = CommGroup(
                    self.world.alloc_comm_id(), [wrank for _k, _p, wrank in members]
                )
        if color < 0:
            return None
        return self._groups[color]


class World:
    """One simulated machine plus its MPI job launcher."""

    def __init__(
        self,
        config: MachineLike = PAPER_TESTBED,
        cost: Optional[CostModel] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        # Collect predecessors' cyclic garbage *before* allocating this
        # machine's buffers (see the note in run()).  Skipped for embedded
        # worlds (``engine=`` injection): a shard hosting a node-local
        # World must not pay a full collection per window.
        if engine is None:
            import gc

            gc.collect()
        self.config = config
        self.engine = engine if engine is not None else Engine()
        self.fabric = Fabric(self.engine, config)
        # An explicit cost model applies to every device; otherwise each
        # device derives its own from the machine spec's per-GPU constants.
        self.cost = cost
        self.devices: List[Device] = [
            Device(self.fabric, g, cost) for g in range(self.fabric.topo.n_gpus)
        ]
        self._addresses: Dict[int, WorkerAddress] = {}
        self._comm_ids = itertools.count(0)
        self._nprocs = 0
        self._boot_counter: Optional[Counter] = None

    # -- bootstrap services (PMIx equivalents, zero simulated cost) -------------
    def _register_address(self, world_rank: int, addr: WorkerAddress) -> None:
        self._addresses[world_rank] = addr

    def address_of(self, world_rank: int) -> WorkerAddress:
        addr = self._addresses.get(world_rank)
        if addr is None:
            raise MpiUsageError(
                f"rank {world_rank} has no published address (before MPI_Init?)"
            )
        return addr

    def _bootstrap_barrier(self):
        assert self._boot_counter is not None
        self._boot_counter.add(1)
        yield self._boot_counter.wait_for(self._nprocs)

    def alloc_comm_id(self) -> int:
        return next(self._comm_ids)

    def comm_split_slot(self, parent_comm) -> "_SplitSlot":
        """Out-of-band agreement slot for one MPI_Comm_split round.

        MPI requires every rank of the communicator to call split in the
        same order, so the Nth split on a communicator is the same
        operation everywhere; the slot collects (color, key) submissions
        and assigns consistent CommGroups once all members arrived.
        """
        slots = self.__dict__.setdefault("_split_slots", {})
        seq = getattr(parent_comm, "_split_seq", 0)
        parent_comm._split_seq = seq + 1
        key = (parent_comm.comm_id, seq)
        slot = slots.get(key)
        if slot is None:
            slot = _SplitSlot(self, parent_comm.size)
            slots[key] = slot
        return slot

    # -- job launch -----------------------------------------------------------------
    def launch(
        self,
        main: Callable[[RankCtx], Any],
        nprocs: Optional[int] = None,
        args: Sequence[Any] = (),
    ) -> List[Any]:
        """Spawn ``nprocs`` rank processes without driving the engine.

        Returns the rank :class:`~repro.sim.process.Process` list (rank
        order); each process event's value is that rank's return value.
        This is the embedding surface: a shard hosts a node-local World by
        launching its ranks onto the shard engine and letting the window
        driver advance time — :meth:`run` is launch + ``engine.run``.
        """
        n_gpus = self.fabric.topo.n_gpus
        nprocs = nprocs if nprocs is not None else n_gpus
        if not 1 <= nprocs <= n_gpus:
            raise MpiUsageError(
                f"nprocs {nprocs} out of range 1..{n_gpus} (one rank per GPU)"
            )
        self._nprocs = nprocs
        self._boot_counter = Counter(self.engine)

        world_group = CommGroup(self.alloc_comm_id(), list(range(nprocs)))
        runtimes = [MpiRuntime(self, r, self.devices[r]) for r in range(nprocs)]

        def rank_main(rt: MpiRuntime):
            yield from rt.init()
            comm = Communicator(world_group, rt)
            ctx = RankCtx(
                rank=rt.world_rank, size=nprocs, world=self,
                mpi=rt, gpu=rt.device, comm=comm,
            )
            result = yield from main(ctx, *args)
            yield from rt.finalize()
            return result

        return [
            self.engine.process(rank_main(rt), name=f"rank{rt.world_rank}")
            for rt in runtimes
        ]

    def run(
        self,
        main: Callable[[RankCtx], Any],
        nprocs: Optional[int] = None,
        args: Sequence[Any] = (),
        until: Optional[float] = None,
    ) -> List[Any]:
        """Launch ``nprocs`` ranks and simulate to completion.

        Returns each rank's return value, ordered by rank.  ``args`` are
        passed through to ``main(ctx, *args)``.
        """
        procs = self.launch(main, nprocs, args)
        done = AllOf(self.engine, procs)
        self.engine.run(done)
        results = [p.value for p in procs]
        # A finished world is a large reference cycle (progress-loop
        # generators <-> engine <-> runtimes <-> NumPy buffers); collect
        # it eagerly so back-to-back benchmark worlds do not accumulate
        # gigabytes of cyclic garbage before the GC would get to them.
        import gc

        self._addresses.clear()
        gc.collect()
        return results

    @property
    def now(self) -> float:
        return self.engine.now
