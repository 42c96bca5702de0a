"""Per-rank MPI runtime state.

Holds the rank's UCP resources, matching structures, endpoint cache, and
progression engine.  Created by :class:`~repro.mpi.world.World` before the
rank process starts; the *costs* of initialization are charged when the
rank process runs :meth:`MpiRuntime.init` (our MPI_Init).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.mpi.matching import TagMatcher
from repro.mpi.progress import ProgressEngine
from repro.sim.resources import Channel
from repro.ucx.context import UcpContext, UcpWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.hw.memory import Buffer
    from repro.mpi.comm import Communicator
    from repro.mpi.requests import PersistentRequest
    from repro.mpi.world import World


class MpiRuntime:
    """Everything rank-local that the MPI layer needs."""

    def __init__(self, world: "World", world_rank: int, device: "Device") -> None:
        self.world = world
        self.world_rank = world_rank
        self.device = device
        self.engine = world.engine
        self.fabric = world.fabric
        self.params = world.fabric.spec.params
        self.node = device.node

        # Populated during init().
        self.context: Optional[UcpContext] = None
        self.worker: Optional[UcpWorker] = None
        self.progress: Optional[ProgressEngine] = None
        self.initialized = False
        self.finalized = False

        # Matching / in-flight state.
        self.matcher = TagMatcher()
        #: Partitioned setup_t / RTR hand-off, keyed (am_id,) + channel key.
        self.part_matcher: Channel = Channel(self.engine)
        #: Request seqs: keys into pending_sends / recv_by_seq.
        self.req_seqs = itertools.count(1)
        self.pending_sends: Dict[int, Tuple] = {}
        self.recv_by_seq: Dict[int, object] = {}
        self.comms: Dict[int, "Communicator"] = {}
        #: Every persistent request created on this rank; close() releases them.
        self.persistent: List["PersistentRequest"] = []
        #: Host scratch of the blocking collectives, keyed (comm_id, role)
        #: and kept across calls (see mpi/collectives.py:_scratch).
        self.scratch: Dict[Tuple[int, str], "Buffer"] = {}

        # MCA partitioned component lazily initialized on first use
        # (its cost lands in the first MPIX_Pbuf_prepare — Table I).
        self.mca_partitioned_ready = False
        #: The component's own UCP context/worker (partitioned first touch).
        self.part_ucp_ready = False

    # -- init / finalize ------------------------------------------------------
    def init(self) -> Generator:
        """MPI_Init: create UCP resources, start progression, bootstrap-sync."""
        if self.initialized:
            return
        self.context = yield from UcpContext.create(
            self.engine, self.fabric, self.node, self.device.gpu_id
        )
        self.worker = yield from self.context.worker_create(name=f"r{self.world_rank}")
        self.progress = ProgressEngine(self)
        self.world._register_address(self.world_rank, self.worker.address)
        # Out-of-band bootstrap barrier (PMIx-style): everyone's address is
        # published before any rank leaves init.
        yield from self.world._bootstrap_barrier()
        self.initialized = True

    def finalize(self) -> Generator:
        if self.finalized:
            return
        yield self.params.mpi_call_overhead
        self.finalized = True

    def close(self) -> None:
        """Job teardown (see World.close): stop this rank's progression,
        release its persistent requests, drop its collective scratch and
        break the cycles the rank stack holds (runtime↔progress engine,
        runtime↔communicators, UCX worker↔endpoints), so it dies by
        reference counting; idempotent."""
        if self.progress is not None:
            self.progress.close()
        for req in self.persistent:
            req.release()
        self.persistent = []
        self.scratch = {}
        self.comms = {}
        if self.worker is not None:
            self.worker.close()

    # -- endpoints --------------------------------------------------------------
    def ep_to(self, comm: "Communicator", comm_rank: int) -> Generator:
        """Endpoint to ``comm_rank`` of ``comm`` (cached after first use)."""
        world_rank = comm.world_rank_of(comm_rank)
        addr = self.world.address_of(world_rank)
        ep = yield from self.worker.ep_create(addr)
        return ep

    def mca_partitioned_init(self) -> Generator:
        """First touch of the partitioned MCA component (Table I)."""
        if not self.mca_partitioned_ready:
            yield self.params.mca_module_init
            self.mca_partitioned_ready = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiRuntime rank={self.world_rank}>"
