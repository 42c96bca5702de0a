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

    with World(ONE_NODE) as world:
        results = world.run(main, nprocs=4)

:meth:`World.close` (or leaving the ``with`` block) releases the job's
memory; :meth:`World.run` itself may be called again on an open World.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cuda.device import Device
from repro.hw.params import PAPER_TESTBED
from repro.hw.spec.schema import MachineSpec
from repro.hw.topology import Fabric
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


class World:
    """One simulated machine plus its MPI job launcher."""

    def __init__(
        self,
        spec: Optional[MachineSpec] = None,
        fabric: Optional[Fabric] = None,
    ) -> None:
        #: Only a World that built its fabric tears the engine down in
        #: close(); an embedded World (``fabric=``: it runs on the host's
        #: fabric and that fabric's engine, and the machine is the
        #: fabric's) leaves the host's alone.
        self._owns_engine = fabric is None
        if fabric is None:
            fabric = Fabric(Engine(), PAPER_TESTBED if spec is None else spec)
        elif spec is not None:
            raise MpiUsageError(
                "World takes a spec or a fabric, not both: an embedded "
                "World runs on the fabric's machine"
            )
        self.fabric = fabric
        self.engine = fabric.engine
        self.devices: List[Device] = [
            Device(self.fabric, g) for g in range(self.fabric.spec.n_gpus)
        ]
        # Registries; close() drops every one of them.
        self._addresses: Dict[int, WorkerAddress] = {}
        self._runtimes: List[MpiRuntime] = []
        #: (comm id, kind, call number) -> the object of that call; see shared().
        self._shared: Dict[tuple, Any] = {}
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

    def shared(self, comm: Communicator, kind: str, make: Callable[[], Any]) -> Any:
        """The object every rank of ``comm`` shares for its nth ``kind`` call.

        MPI requires every rank to make a communicator's collective calls
        in the same order, so a rank's nth ``kind`` call is one operation
        on every rank: the first rank to reach it builds the object with
        ``make()`` (an out-of-band, PMIx-style agreement), the others get
        the same one.
        """
        key = (comm.comm_id, kind, comm.next_call(kind))
        obj = self._shared.get(key)
        if obj is None:
            obj = self._shared[key] = make()
        return obj

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
        This is the embedding surface: a shard hosts a node-local World on
        its own fabric (``World(fabric=...)``), launches the ranks onto
        that fabric's engine and lets the window driver advance time —
        :meth:`run` is launch + ``engine.run``.
        """
        n_gpus = self.fabric.spec.n_gpus
        nprocs = nprocs if nprocs is not None else n_gpus
        if not 1 <= nprocs <= n_gpus:
            raise MpiUsageError(
                f"nprocs {nprocs} out of range 1..{n_gpus} (one rank per GPU)"
            )
        self._nprocs = nprocs
        self._boot_counter = Counter(self.engine)

        world_group = CommGroup(self.alloc_comm_id(), list(range(nprocs)))
        runtimes = [MpiRuntime(self, r, self.devices[r]) for r in range(nprocs)]
        self._runtimes += runtimes

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
    ) -> List[Any]:
        """Launch ``nprocs`` ranks and simulate to completion.

        Returns each rank's return value, ordered by rank.  ``args`` are
        passed through to ``main(ctx, *args)``.
        """
        procs = self.launch(main, nprocs, args)
        done = AllOf(self.engine, procs)
        self.engine.run(done)
        return [p.value for p in procs]

    # -- teardown -------------------------------------------------------------------
    def close(self) -> None:
        """Release everything the job holds; idempotent.

        ``MPI_Finalize`` for the whole machine: every rank's progress loops
        and every stream worker are killed (they park forever on empty
        queues), persistent requests the ranks never freed are released,
        each rank's collective scratch is dropped, and the rank stacks'
        own cycles (runtime↔progress engine, UCX workers↔endpoints,
        device↔streams) are broken.  A World that built its fabric also
        drops the engine's pending heap and closes the fabric.  No cycle
        is left, so the job, payloads included, is freed by reference
        counting the moment the caller lets go, with no collection.  An
        embedded World (``fabric=`` injection) closes its ranks and
        devices the same way but leaves the host's engine and fabric
        alone: the heap, and whatever else is parked on it, is its host's
        to tear down.  A second call finds nothing left to release.
        """
        for rt in self._runtimes:
            rt.close()
        for device in self.devices:
            device.close()
        if self._owns_engine:
            self.engine.close()
            self.fabric.close()
        self._addresses.clear()
        self._runtimes.clear()
        self._shared.clear()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def now(self) -> float:
        return self.engine.now
