"""The declarative machine description consumed by the fabric builder.

A :class:`MachineSpec` says *what the machine is* — node templates with
their GPUs, typed link classes with latency/bandwidth, how devices within
a node reach each other (pair mesh, shared switch, or host staging), and
where the NICs sit (one per GPU or one per node).  It says nothing about
*how* to route: :mod:`repro.hw.spec.graph` turns a spec into a typed link
graph and resolves routes by graph search, so new machine shapes need no
new routing code.

The hierarchical link-acquisition order is encoded as ``stage`` ranks
(``STAGE_*`` below).  Every route a spec can produce acquires links in
strictly increasing stage — the deadlock-freedom invariant the property
tests pin (tx < nic_out < nic_in < rx).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.hw.params import GH200Params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.spec.graph import Wiring

# Hierarchical acquisition stages.  A primary route's links are strictly
# increasing in stage, so transfers along primaries cannot deadlock on
# port acquisition (they all climb the same ladder).  The alternates the
# multi-path policy peels around a primary can detour through a third
# GPU, holding two STAGE_D2D ports, and those can deadlock (see
# hw.links._Transfer).  Only the relative order matters — tests
# pin monotonicity, not absolute ranks.
STAGE_HOSTMEM_TX = 0   # source-side pageable-memory read port
STAGE_SRC_LOCAL = 1    # hbm self-copy / device->host egress (c2c, pcie)
STAGE_D2D = 2          # direct pair link or switch up-port
STAGE_SWITCH_DOWN = 3  # switch down-port
STAGE_NIC_OUT = 3      # NIC egress onto the inter-node wire
STAGE_FABRIC_UP = 4    # leaf -> spine trunk / dragonfly global link
STAGE_FABRIC_DOWN = 5  # spine -> leaf trunk
STAGE_NIC_IN = 6       # NIC ingress from the wire
STAGE_DST_LOCAL = 7    # host->device ingress (c2c, pcie)
STAGE_HOSTMEM_RX = 8   # destination-side pageable-memory write port


#: The GH200Params fields a spec builder copies into its link classes.
#: A spec built with one value keeps it in its links, so only a rebuild
#: (``gh200_spec(n_nodes, gpus_per_node, params)``) may change them.
LINK_PARAMS = frozenset({
    "hbm_bw", "nvlink_bw", "nvlink_latency", "c2c_bw", "c2c_latency",
    "host_mem_bw", "ib_bw", "ib_latency",
})


class SpecError(ValueError):
    """An inconsistent or unbuildable machine description."""


class Interconnect(enum.Enum):
    """How a node's devices reach each other (intra-node D2D)."""

    PAIR_MESH = "pair-mesh"      # a dedicated link per ordered GPU pair (GH200 NVLink)
    SWITCH = "switch"            # per-GPU ports into a shared switch (DGX NVSwitch)
    HOST_STAGED = "host-staged"  # no P2P: D2D bounces through host memory (PCIe)


@dataclass(frozen=True)
class LinkClass:
    """A typed class of links: telemetry kind + latency/bandwidth."""

    kind: str
    bandwidth: float       # bytes/s, per direction
    latency: float         # seconds, first-byte
    overhead: float = 0.0  # fixed per-message port occupancy

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("LinkClass needs a non-empty kind")
        if self.bandwidth <= 0:
            raise SpecError(f"link class {self.kind!r}: bandwidth must be positive")
        if self.latency < 0 or self.overhead < 0:
            raise SpecError(f"link class {self.kind!r}: negative latency/overhead")


@dataclass(frozen=True)
class NodeSpec:
    """One node template: GPU count, intra-node wiring, NIC placement.

    Every GPU of a machine shares the constants of its ``spec.params``.
    """

    n_gpus: int
    interconnect: Interconnect
    hbm: LinkClass                 # per-GPU local-copy port
    d2h: LinkClass                 # device -> host (C2C down, PCIe d2h)
    h2d: LinkClass                 # host -> device (C2C up, PCIe h2d)
    hostmem: LinkClass             # pageable host memory port (tx/rx pair)
    d2d: Optional[LinkClass] = None  # pair link / switch port; None = host-staged
    nic_per_gpu: bool = True       # False: one shared NIC per node

    def __post_init__(self) -> None:
        if not self.n_gpus >= 1:
            raise SpecError("NodeSpec needs at least one GPU")
        needs_d2d = self.interconnect in (Interconnect.PAIR_MESH, Interconnect.SWITCH)
        if needs_d2d and self.d2d is None:
            raise SpecError(f"{self.interconnect.value} interconnect needs a d2d link class")
        if self.interconnect is Interconnect.HOST_STAGED and self.d2d is not None:
            raise SpecError("host-staged interconnect must not define a d2d link class")


@dataclass(frozen=True)
class FatTreeFabric:
    """A rail-optimized two-level (leaf/spine) Clos inter-node fabric.

    Each *rail* is an independent leaf/spine plane; GPU ``g`` of a node
    attaches its NIC to rail ``local_index % rails``.  Nodes are grouped
    ``nodes_per_leaf`` per leaf switch; every leaf uplinks to all
    ``spines_per_rail`` spines of its rail.  Cross-rail traffic forwards
    over intra-node D2D to a same-node GPU on the destination's rail
    (PXN-style) before entering the fabric.
    """

    rails: int
    nodes_per_leaf: int
    spines_per_rail: int
    trunk_up: LinkClass    # leaf -> spine (STAGE_FABRIC_UP)
    trunk_down: LinkClass  # spine -> leaf (STAGE_FABRIC_DOWN)

    def __post_init__(self) -> None:
        if self.rails < 1 or self.nodes_per_leaf < 1 or self.spines_per_rail < 1:
            raise SpecError("fat-tree fabric needs rails/nodes_per_leaf/spines >= 1")

    def check(self, spec: "MachineSpec") -> None:
        if spec.n_nodes % self.nodes_per_leaf:
            raise SpecError(
                f"fat-tree fabric: {spec.n_nodes} nodes not divisible by "
                f"nodes_per_leaf={self.nodes_per_leaf}"
            )
        _check_rail_nodes(spec, self.rails)

    @property
    def kind(self) -> str:
        return "fat-tree"


@dataclass(frozen=True)
class DragonflyFabric:
    """A one-router-per-group dragonfly with all-to-all global links.

    Each rail places one router per group; routers of a rail are fully
    connected by ``global_link`` wires.  GPU rail assignment and PXN
    cross-rail forwarding match :class:`FatTreeFabric`.
    """

    rails: int
    nodes_per_group: int
    global_link: LinkClass  # router <-> router (STAGE_FABRIC_UP)

    def __post_init__(self) -> None:
        if self.rails < 1 or self.nodes_per_group < 1:
            raise SpecError("dragonfly fabric needs rails/nodes_per_group >= 1")

    def check(self, spec: "MachineSpec") -> None:
        if spec.n_nodes % self.nodes_per_group:
            raise SpecError(
                f"dragonfly fabric: {spec.n_nodes} nodes not divisible by "
                f"nodes_per_group={self.nodes_per_group}"
            )
        _check_rail_nodes(spec, self.rails)

    @property
    def kind(self) -> str:
        return "dragonfly"


FabricSpec = Union[FatTreeFabric, DragonflyFabric]


def _check_rail_nodes(spec: "MachineSpec", rails: int) -> None:
    """Rail-optimized attachment needs every rail populated on every node."""
    for i, node in enumerate(spec.nodes):
        if rails > 1 and not node.nic_per_gpu:
            raise SpecError(f"node {i}: multi-rail fabric needs nic_per_gpu=True")
        if node.n_gpus % rails:
            raise SpecError(
                f"node {i}: {node.n_gpus} gpus not divisible by rails={rails}"
            )


@dataclass(frozen=True)
class MachineSpec:
    """The whole machine: node templates + the inter-node fabric."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    nic_out: LinkClass
    nic_in: LinkClass
    #: Every model constant, the GPUs' included (``device.params``).
    params: GH200Params = field(default_factory=GH200Params)
    #: None keeps the flat single-wire ("net",) model of the small specs;
    #: a FabricSpec compiles leaf/spine (or router) switch ports instead.
    fabric: Optional[FabricSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("MachineSpec needs a name")
        if not self.nodes:
            raise SpecError("MachineSpec needs at least one node")
        if self.fabric is not None:
            self.fabric.check(self)

    # -- shape queries -------------------------------------------------------
    # Every GPU-indexed query answers from two tables built on first use
    # and cached on this spec object: they are not fields, so ``==``,
    # ``hash`` and the spec's content hash never see them.
    @cached_property
    def _gpu_node(self) -> Tuple[int, ...]:
        """Global GPU index -> index of the node hosting it."""
        return tuple(
            idx for idx, node in enumerate(self.nodes) for _ in range(node.n_gpus)
        )

    @cached_property
    def _node_base(self) -> Tuple[int, ...]:
        """Node index -> global index of its first GPU."""
        return tuple(accumulate((n.n_gpus for n in self.nodes[:-1]), initial=0))

    # -- link wiring: cached on the spec like the shape tables -------------
    @cached_property
    def wiring(self) -> "Wiring":
        """The compiled link table every fabric of this spec shares."""
        from repro.hw.spec.graph import Wiring

        return Wiring(self)

    @cached_property
    def cut_wirings(self) -> Dict[NodeSpec, "Wiring"]:
        """Node template -> the wiring its shard cuts share (``local_spec``)."""
        return {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_gpus(self) -> int:
        return len(self._gpu_node)

    @property
    def uniform_gpus_per_node(self) -> Optional[int]:
        counts = sorted({n.n_gpus for n in self.nodes})
        return counts[0] if len(counts) == 1 else None

    def gpu_base(self, node: int) -> int:
        """Global index of ``node``'s first GPU."""
        bases = self._node_base
        if 0 <= node < len(bases):
            return bases[node]
        raise IndexError(f"node {node} out of range (n_nodes={len(bases)})")

    def node_of(self, gpu: int) -> int:
        gpu_node = self._gpu_node
        if 0 <= gpu < len(gpu_node):
            return gpu_node[gpu]
        raise IndexError(f"gpu {gpu} out of range (n_gpus={len(gpu_node)})")

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def node_spec_of(self, gpu: int) -> NodeSpec:
        return self.nodes[self.node_of(gpu)]

    # -- peer capability -----------------------------------------------------
    def can_peer_map(self, a: int, b: int) -> bool:
        """May GPU ``a`` map GPU ``b``'s memory (cudaIpcOpenMemHandle)?

        True only for same-node peers whose interconnect provides device
        P2P (pair mesh or switch).  Host-staged (no-P2P PCIe) nodes cannot
        peer-map even within the node — the capability the sanitizer's
        ipc-misuse check and the UCX cuda_ipc transport selection key on.
        """
        node = self.node_of(a)
        if node != self.node_of(b):
            return False
        return a == b or self.nodes[node].interconnect is not Interconnect.HOST_STAGED

    def validate(self) -> None:
        """Raise :class:`SpecError` on inconsistency (dataclass hooks catch
        most; this re-checks cross-field invariants for loaded specs)."""
        GH200Params.__post_init__(self.params)
        for node in self.nodes:
            NodeSpec.__post_init__(node)
            for cls in (node.hbm, node.d2h, node.h2d, node.hostmem) + (
                (node.d2d,) if node.d2d is not None else ()
            ):
                LinkClass.__post_init__(cls)
        LinkClass.__post_init__(self.nic_out)
        LinkClass.__post_init__(self.nic_in)
        if self.fabric is not None:
            self.fabric.check(self)

    def rail_of(self, gpu: int) -> int:
        """Fabric rail GPU ``gpu``'s NIC attaches to (0 when no fabric)."""
        node = self.node_of(gpu)
        if self.fabric is None:
            return 0
        return (gpu - self._node_base[node]) % self.fabric.rails

    def with_params(self, **kw) -> "MachineSpec":
        """Copy with software/protocol constants overridden (ablations).

        A link constant (:data:`LINK_PARAMS`) raises :class:`SpecError`:
        the copy would keep the old value in its link classes.
        """
        wired = sorted(LINK_PARAMS.intersection(kw))
        if wired:
            raise SpecError(
                f"with_params cannot change link constant(s) {wired}; "
                "rebuild the spec with gh200_spec(n_nodes, gpus_per_node, params)"
            )
        return replace(self, params=self.params.with_overrides(**kw))
