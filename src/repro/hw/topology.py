"""Machine topology and the Fabric: links, routes, and the dataplane.

:class:`Topology` answers shape queries (which node owns a GPU, who is a
peer) over a :class:`~repro.hw.spec.schema.MachineSpec` — or over a legacy
:class:`~repro.hw.params.TestbedConfig`, which is coerced to the canonical
GH200 spec (paper Section V: ``n_nodes`` nodes of NVLink-meshed GH200
superchips with one ConnectX-7 NIC each).

:class:`Fabric` compiles the spec into a typed link graph
(:class:`~repro.hw.spec.graph.LinkGraph`), resolves a route for any
(source buffer, destination buffer) pair by graph search — memoized per
(src-port, dst-port) in a route cache, so the hot transfer path never
re-searches — and owns the :class:`~repro.dataplane.plane.Dataplane`
every transfer is submitted to (``fabric.dataplane.put`` / ``rma_put`` /
``control``).

Each fabric takes its path policy and fault schedule from the run it is
built in (:func:`repro.sim.run.current`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.dataplane.plane import Dataplane
from repro.dataplane.policy import policy_by_name
from repro.hw import faults as hw_faults
from repro.hw.links import Link, LinkState
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import TestbedConfig
from repro.hw.spec.catalog import as_spec
from repro.hw.spec.graph import LinkGraph, Port, RouteSearchError
from repro.hw.spec.schema import MachineSpec
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.run import current

#: Global GPU index (0 .. n_gpus-1); node-local index is position on the node.
GpuId = int

#: Anything that describes a machine: a declarative spec or the legacy config.
MachineLike = Union[MachineSpec, TestbedConfig]


class Topology:
    """Pure shape and capability queries over a machine description."""

    def __init__(self, config: MachineLike) -> None:
        self.config = config
        self.spec = as_spec(config)

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    @property
    def gpus_per_node(self) -> int:
        uniform = self.spec.uniform_gpus_per_node
        if uniform is None:
            raise ValueError(
                f"machine {self.spec.name!r} has heterogeneous nodes; "
                "use gpus_on_node(node) instead"
            )
        return uniform

    @property
    def n_gpus(self) -> int:
        return self.spec.n_gpus

    def node_of(self, gpu: GpuId) -> int:
        self._check(gpu)
        return self.spec.node_of(gpu)

    def local_index(self, gpu: GpuId) -> int:
        self._check(gpu)
        return gpu - self.spec.gpu_base(self.spec.node_of(gpu))

    def same_node(self, a: GpuId, b: GpuId) -> bool:
        return self.node_of(a) == self.node_of(b)

    def can_peer_map(self, a: GpuId, b: GpuId) -> bool:
        """May GPU ``a`` map GPU ``b``'s memory (cudaIpcOpenMemHandle)?

        Derived from the spec's interconnect, not from node distance: a
        host-staged (no-P2P PCIe) node refuses even same-node mappings.
        """
        self._check(a)
        self._check(b)
        return self.spec.can_peer_map(a, b)

    def gpus_on_node(self, node: int) -> List[GpuId]:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range (n_nodes={self.n_nodes})")
        base = self.spec.gpu_base(node)
        return list(range(base, base + self.spec.nodes[node].n_gpus))

    def _check(self, gpu: GpuId) -> None:
        if not 0 <= gpu < self.n_gpus:
            raise IndexError(f"gpu {gpu} out of range (n_gpus={self.n_gpus})")


class RouteError(Exception):
    """No path exists between the requested buffer locations."""


class Fabric:
    """All links of one machine plus route resolution and transfers."""

    def __init__(self, engine: Engine, config: MachineLike) -> None:
        run = current()
        self.engine = engine
        self.config = config
        self.spec = as_spec(config)
        self.topo = Topology(config)
        self.graph = LinkGraph(engine, self.spec)
        #: The one mutation surface for link health (DESIGN.md §17);
        #: every mutation bumps its epoch and invalidates route caches.
        self.link_state = LinkState(engine, self.graph.links)
        #: (src-port, dst-port) -> resolved link tuple; hit on every
        #: transfer after the first between a location pair.
        self._route_cache: Dict[Tuple[Port, Port], Tuple[Link, ...]] = {}
        #: Fabric epoch the route cache was filled under.
        self._route_epoch = 0
        #: Number of cache-miss route computations (asserted by tests).
        self.route_computations = 0

        # Structured link registries (views into the graph's registries;
        # keyed and named exactly like the original hard-coded testbed).
        self.hbm: Dict[GpuId, Link] = self.graph.hbm
        self.nvlink: Dict[Tuple[GpuId, GpuId], Link] = self.graph.d2d
        self.switch_up: Dict[GpuId, Link] = self.graph.switch_up
        self.switch_down: Dict[GpuId, Link] = self.graph.switch_down
        self.d2h: Dict[GpuId, Link] = self.graph.d2h
        self.h2d: Dict[GpuId, Link] = self.graph.h2d
        self.nic_out: Dict[int, Link] = self.graph.nic_out
        self.nic_in: Dict[int, Link] = self.graph.nic_in
        self.hostmem_tx: Dict[int, Link] = self.graph.hostmem_tx
        self.hostmem_rx: Dict[int, Link] = self.graph.hostmem_rx

        # Copy engine per GPU: host-initiated peer copies (UCX cuda_ipc
        # puts = cuMemcpyDtoDAsync) serialize through it with a per-op
        # setup cost, which caps their aggregate NVLink efficiency below
        # what SM-driven stores (Kernel-Copy, NCCL) achieve.
        from repro.sim.resources import Resource

        self.copy_engine: Dict[GpuId, Resource] = {
            g: Resource(engine, capacity=1, name=f"gpu{g}.ce")
            for g in range(self.topo.n_gpus)
        }

        #: The single submission point for every simulated byte.  Path
        #: selection (single route vs link-disjoint striping) is the
        #: dataplane policy's call — see repro.dataplane and DESIGN.md §12.
        self.dataplane = Dataplane(self, policy_by_name(run.policy))

        #: Pending fault-schedule heap events, in schedule order.
        self.fault_events: List[Event] = (
            hw_faults.install_on_fabric(self, run.faults)
            if run.faults is not None else []
        )

    # -- link registry ---------------------------------------------------------
    def iter_links(self):
        """Every link of the machine, in registration order."""
        return iter(self.graph.links)

    def link_kinds(self) -> List[str]:
        """Distinct link kinds, in first-registration order."""
        seen: Dict[str, None] = {}
        for link in self.graph.links:
            seen.setdefault(link.kind, None)
        return list(seen)

    def d2h_link(self, gpu: GpuId) -> Link:
        """The device->host egress link of ``gpu`` (C2C down / PCIe d2h).

        Device-thread flag stores into pinned host memory serialize here.
        """
        return self.graph.d2h[gpu]

    # -- route resolution ------------------------------------------------------
    @staticmethod
    def _endpoint(buf: Buffer) -> Port:
        space, node, gpu = buf.location()
        if space in (MemSpace.DEVICE, MemSpace.UNIFIED) and gpu is not None:
            return ("gpu", gpu)
        if space is MemSpace.HOST:
            return ("pag", node)
        return ("pin", node)

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
        key = (self._endpoint(src), self._endpoint(dst))
        cached = self._route_cache.get(key)
        if cached is None:
            self.route_computations += 1
            try:
                cached = self.graph.search(*key)
            except RouteSearchError as exc:
                raise RouteError(str(exc)) from exc
            self._route_cache[key] = cached
        return cached

    def gpu_distance(self, a: GpuId, b: GpuId) -> str:
        """'local' | 'nvlink' | 'ib' — used by protocol selection."""
        if a == b:
            return "local"
        return "nvlink" if self.topo.same_node(a, b) else "ib"
