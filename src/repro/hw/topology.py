"""The Fabric: a machine's links, routes, and the dataplane.

:class:`Fabric` views a :class:`~repro.hw.spec.schema.MachineSpec`'s
shared link wiring through its own :class:`~repro.hw.spec.graph.LinkGraph`
(a link is built when a route, fault or ``d2h_link`` first touches it),
resolves a route for any (source buffer, destination buffer) pair by
graph search — memoized per (src-port, dst-port), so the hot transfer
path never re-searches — and owns the :class:`~repro.dataplane.plane.Dataplane`
every transfer is submitted to (``fabric.dataplane.put`` / ``rma_put`` /
``control``).  Shape and capability queries (``node_of``, ``same_node``,
``can_peer_map``) are the spec's own, read as ``fabric.spec``.

Each fabric takes its path policy and fault schedule from the run it is
built in (:func:`repro.sim.run.current`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.dataplane.plane import Dataplane
from repro.dataplane.policy import policy_by_name
from repro.hw import faults as hw_faults
from repro.hw.links import Link, LinkState
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.graph import LinkGraph, Port, RouteError, RouteSearchError
from repro.hw.spec.schema import MachineSpec
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.sim.run import current

#: Global GPU index (0 .. n_gpus-1); node-local index is position on the node.
GpuId = int
#: Spaces behind a GPU's port, looked up once (a MemSpace.X costs ~0.1 us).
_GPU_SPACES = (MemSpace.DEVICE, MemSpace.UNIFIED)


class Fabric:
    """All links of one machine plus route resolution and transfers."""

    def __init__(self, engine: Engine, spec: MachineSpec) -> None:
        run = current()
        self.engine = engine
        self.spec = spec
        self.graph = LinkGraph(engine, self.spec)
        #: The one mutation surface for link health (DESIGN.md §17);
        #: every mutation bumps its epoch and invalidates route caches.
        #: While the epoch is 0, routes come from the spec's shared wiring.
        self.link_state = LinkState(engine, self.graph)
        #: (src-port, dst-port) -> resolved link tuple, hit on every
        #: transfer after the first between a location pair; and
        #: (src-port, dst-port, max_paths) -> link-disjoint route tuple
        #: (:meth:`disjoint_routes`).
        self._route_cache: Dict[tuple, tuple] = {}
        #: Fabric epoch the route cache (both kinds of entry) was filled under.
        self._route_epoch = 0
        #: Number of cache-miss route computations (asserted by tests).
        self.route_computations = 0
        #: GPU -> its copy engine, built on first use (:meth:`copy_engine`).
        self._copy_engines: Dict[GpuId, Resource] = {}
        #: UCP worker ids: unique per fabric, so per World.
        self.worker_ids = itertools.count()

        #: The single submission point for every simulated byte.  Path
        #: selection (single route vs link-disjoint striping) is the
        #: dataplane policy's call — see repro.dataplane and DESIGN.md §12.
        self.dataplane = Dataplane(self, policy_by_name(run.policy))

        #: Pending fault-schedule heap events, in schedule order.
        self.fault_events: List[Event] = (
            hw_faults.install_on_fabric(self, run.faults)
            if run.faults is not None else []
        )

    def close(self) -> None:
        """Break the fabric↔dataplane cycle once nothing runs on the
        fabric, so it dies by reference counting; its owner calls this."""
        self.dataplane.fabric = None

    # -- link registry ---------------------------------------------------------
    def iter_links(self):
        """The links built so far (the rest carried nothing), in order."""
        return (link for link in self.graph.built if link is not None)

    def link_kinds(self) -> List[str]:
        """Distinct link kinds of the machine, in first-registration order."""
        return list(dict.fromkeys(row.kind for row in self.graph.wiring.rows))

    def d2h_link(self, gpu: GpuId) -> Link:
        """The device->host egress link of ``gpu`` (C2C down / PCIe d2h).

        Device-thread flag stores into pinned host memory serialize here.
        """
        return self.graph.link(self.graph.wiring.d2h[gpu])

    def copy_engine(self, gpu: GpuId) -> Resource:
        """``gpu``'s copy engine, built on first use.  Host-initiated peer
        copies (UCX cuda_ipc puts) serialize through it with a per-op setup
        cost, capping their NVLink efficiency below SM-driven stores."""
        ce = self._copy_engines.get(gpu)
        if ce is None:
            ce = self._copy_engines[gpu] = Resource(self.engine, name=f"gpu{gpu}.ce")
        return ce

    # -- route resolution ------------------------------------------------------
    @staticmethod
    def _ports(src: Buffer, dst: Buffer) -> Tuple[Port, Port]:
        """The route key: each end's port, off its buffer's space/node/gpu."""
        key = ()
        for buf in (src, dst):
            gpu = buf.gpu
            if gpu is not None and buf.space in _GPU_SPACES:
                key += (("gpu", gpu),)
            else:
                key += (("pag" if buf.space is MemSpace.HOST else "pin", buf.node),)
        return key

    def route(self, src: Buffer, dst: Buffer) -> Tuple[Link, ...]:
        """Resolve (or fetch the cached) link path from ``src`` to ``dst``.

        The NIC used for an inter-node hop is the one the spec attaches to
        the source/destination location (GPUDirect-RDMA-style per-GPU NICs
        move device memory without host staging; a shared node NIC funnels
        everything through the host bridge).

        Routes are valid for one fabric epoch: a link mutation bumps
        :attr:`LinkState.epoch` and the next resolution drops the whole
        cache, so downed links never leak out of a stale entry.  On a
        healthy fabric the epoch never moves and this is one int compare.
        """
        epoch = self.link_state.epoch
        if epoch != self._route_epoch:
            self._route_cache.clear()
            self._route_epoch = epoch
        key = self._ports(src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            self.route_computations += 1
            try:
                cached = self.graph.search(*key, epoch=epoch)
            except RouteSearchError as exc:
                raise RouteError(str(exc)) from exc
            self._route_cache[key] = cached
        return cached

    def disjoint_routes(self, src: Buffer, dst: Buffer, max_paths: int) -> tuple:
        """Up to ``max_paths`` pairwise link-disjoint routes, primary first.

        Greedy peeling over the link graph: take the fewest-links route,
        exclude every link it claims, search again — until the graph runs
        out of paths or ``max_paths`` is reached.  Memoized in the route
        cache per (src-port, dst-port, max_paths), so :meth:`route`'s one
        epoch check drops these entries too; fully deterministic (the
        search breaks ties by adjacency insertion order).
        """
        primary = self.route(src, dst)  # first, so a stale cache is dropped
        sport, dport = self._ports(src, dst)
        key = (sport, dport, max_paths)
        routes = self._route_cache.get(key)
        if routes is None:
            found = [primary]
            if sport != dport:
                used = set(primary)
                while len(found) < max_paths:
                    try:
                        alt = self.graph.search(
                            sport, dport, exclude=used, epoch=self._route_epoch
                        )
                    except RouteSearchError:
                        break
                    found.append(alt)
                    used.update(alt)
            routes = self._route_cache[key] = tuple(found)
        return routes
