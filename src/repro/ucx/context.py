"""UCP contexts, workers, and worker addresses.

One :class:`UcpContext` exists per process (MPI rank); it creates the
rank's :class:`UcpWorker` objects.  A worker encapsulates communication
resources and receives active messages; its :class:`WorkerAddress` is what remote
endpoints connect to (in real UCX an opaque blob exchanged out-of-band; our
MPI layer exchanges it through the launcher's bootstrap, like PMIx would).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Channel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ucx.endpoint import UcpEndpoint


@dataclass(frozen=True)
class WorkerAddress:
    """Opaque address of a worker (exchangeable between ranks)."""

    worker_id: int
    node: int
    gpu: Optional[int]
    _worker: "UcpWorker" = field(repr=False, compare=False)

    def resolve(self) -> "UcpWorker":
        return self._worker


class AmMessage:
    """A received active message."""

    __slots__ = ("am_id", "payload", "nbytes", "sender")

    def __init__(self, am_id: int, payload: Any, nbytes: int, sender: WorkerAddress) -> None:
        self.am_id = am_id
        self.payload = payload
        self.nbytes = nbytes
        self.sender = sender


class UcpWorker:
    """A progress context: AM reception + endpoint factory."""

    def __init__(self, context: "UcpContext", name: str = "") -> None:
        self.context = context
        self.engine: Engine = context.engine
        self.fabric: Fabric = context.fabric
        self.worker_id = next(self.fabric.worker_ids)
        self.name = name or f"worker{self.worker_id}"
        #: Received active messages, FIFO per AM id.
        self.am: Channel[AmMessage] = Channel(self.engine)
        self.endpoints: Dict[int, "UcpEndpoint"] = {}  # keyed by remote worker_id

    @property
    def address(self) -> WorkerAddress:
        return WorkerAddress(self.worker_id, self.context.node, self.context.gpu, self)

    # -- endpoints ----------------------------------------------------------
    def ep_create(self, remote: WorkerAddress):
        """Create (or reuse) an endpoint to ``remote``.

        Host generator: charges endpoint creation cost on first use — call
        as ``ep = yield from worker.ep_create(addr)``.
        """
        from repro.ucx.endpoint import UcpEndpoint

        ep = self.endpoints.get(remote.worker_id)
        if ep is None:
            yield self.fabric.spec.params.ucp_ep_create
            ep = self.endpoints[remote.worker_id] = UcpEndpoint(self, remote)
        return ep

    # -- active messages -------------------------------------------------------
    def am_recv(self, am_id: int) -> Event:
        """Event yielding the next AmMessage with ``am_id``."""
        return self.am.get(am_id)

    def _deliver_am(self, msg: AmMessage) -> None:
        self.am.put(msg, msg.am_id)

    def close(self) -> None:
        """Drop the endpoints: each reaches its remote worker, so one
        job's workers form cycles until they are closed."""
        self.endpoints = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcpWorker {self.name} node={self.context.node}>"


class UcpContext:
    """Per-process UCP context (created lazily by the MPI layer)."""

    def __init__(self, engine: Engine, fabric: Fabric, node: int, gpu: Optional[int]) -> None:
        self.engine = engine
        self.fabric = fabric
        self.node = node
        self.gpu = gpu

    @classmethod
    def create(cls, engine: Engine, fabric: Fabric, node: int, gpu: Optional[int]):
        """Host generator: charge ``ucp_context_create`` and build."""
        yield fabric.spec.params.ucp_context_create
        return cls(engine, fabric, node, gpu)

    def worker_create(self, name: str = ""):
        """Host generator: charge ``ucp_worker_create`` and build."""
        yield self.fabric.spec.params.ucp_worker_create
        return UcpWorker(self, name)
