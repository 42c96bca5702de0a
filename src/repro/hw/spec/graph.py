"""Typed link graph built from a :class:`MachineSpec` + route search.

Ports (graph vertices) are locations a byte stream can start, end, or pass
through::

    ("gpu", g)   device memory of global GPU g
    ("pin", n)   pinned / registered host memory on node n (wire-visible)
    ("pag", n)   pageable host memory on node n (behind the DRAM port)
    ("sw",  n)   node n's intra-node switch (SWITCH interconnect only)
    ("net",)     the inter-node wire

Edges carry one or two links (a pageable endpoint reaches the wire
through its DRAM port *and* the NIC).  Routes are resolved by
uniform-cost search minimizing the number of links, with ties broken by
adjacency insertion order — fully deterministic.

:class:`Wiring`, a spec's link rows, adjacency and healthy routes as row
indices, holds no simulation state: each spec compiles it once
(:attr:`MachineSpec.wiring`) for all its fabrics and shard cuts.
:class:`LinkGraph` is one fabric's view; it builds a row's
:class:`~repro.hw.links.Link` when a route, a fault or ``d2h_link``
first needs it.  The :class:`~repro.hw.topology.Fabric` memoizes routes
per (src-port, dst-port) pair, so the hot transfer path never re-searches.

Every link gets a ``stage`` rank from the spec schema; by construction
each route's stages are strictly increasing (the deadlock-freedom ladder
``tx < nic_out < nic_in < rx``), which the property tests sweep.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from repro.hw.links import Link
from repro.hw.spec.schema import (
    Interconnect,
    LinkClass,
    MachineSpec,
    STAGE_D2D,
    STAGE_DST_LOCAL,
    STAGE_FABRIC_DOWN,
    STAGE_FABRIC_UP,
    STAGE_HOSTMEM_RX,
    STAGE_HOSTMEM_TX,
    STAGE_NIC_IN,
    STAGE_NIC_OUT,
    STAGE_SRC_LOCAL,
    STAGE_SWITCH_DOWN,
)
from repro.sim.engine import Engine

#: A graph vertex (see module docstring).
Port = Tuple
#: A route as row indices into :attr:`Wiring.rows`.
Rows = Tuple[int, ...]


class RouteSearchError(Exception):
    """No path exists between the requested ports."""


class RouteError(Exception):
    """No path exists between the requested buffer locations (``Fabric.route``)."""


#: One link's constants, in :class:`~repro.hw.links.Link`'s argument order.
LinkRow = namedtuple("LinkRow", "name bandwidth latency overhead kind stage")


class Wiring:
    """All links of one machine as rows, wired into a routable graph."""

    def __init__(self, spec: MachineSpec) -> None:
        #: Every link, in registration order (``topo`` prints these).
        self.rows: List[LinkRow] = []
        #: Link name -> row (the first, should a spec repeat a name).
        self.index: Dict[str, int] = {}
        #: Adjacency: port -> [(destination port, rows crossing the edge)].
        self.adj: Dict[Port, List[Tuple[Port, Rows]]] = {}
        #: Route used when source and destination ports coincide.
        self.self_routes: Dict[Port, Rows] = {}
        #: GPU -> row of its device->host egress link.
        self.d2h: Dict[int, int] = {}
        #: (src-port, dst-port) -> fewest-links route with every link up
        #: (None: no path), filled by fabrics whose link state is untouched.
        self.routes: Dict[Tuple[Port, Port], Rows] = {}
        self._build(spec)

    # -- construction --------------------------------------------------------
    def _link(self, cls: LinkClass, name: str, stage: int) -> int:
        Link.check(name, cls.bandwidth, cls.latency, cls.overhead)
        self.index.setdefault(name, len(self.rows))
        self.rows.append(LinkRow(name, cls.bandwidth, cls.latency, cls.overhead, cls.kind, stage))
        return len(self.rows) - 1

    def _edge(self, src: Port, dst: Port, *rows: int) -> None:
        self.adj.setdefault(src, []).append((dst, rows))

    def _build_fabric(self, spec: MachineSpec) -> None:
        """Switch ports + trunk wiring for generated fabrics.

        Replaces the single ("net",) vertex with per-rail leaf/spine (or
        dragonfly router) ports; NICs attach via :meth:`_nic_attach`.
        Wired before the node loop so trunk registration order is stable.
        """
        fabric = spec.fabric
        if fabric.kind == "fat-tree":
            leaves = spec.n_nodes // fabric.nodes_per_leaf
            for r in range(fabric.rails):
                for lf in range(leaves):
                    for s in range(fabric.spines_per_rail):
                        up = self._link(fabric.trunk_up, f"r{r}up{lf}.{s}", STAGE_FABRIC_UP)
                        down = self._link(
                            fabric.trunk_down, f"r{r}dn{s}.{lf}", STAGE_FABRIC_DOWN
                        )
                        self._edge(("leaf", r, lf), ("spine", r, s), up)
                        self._edge(("spine", r, s), ("leaf", r, lf), down)
        else:  # dragonfly: all-to-all global links per rail
            groups = spec.n_nodes // fabric.nodes_per_group
            for r in range(fabric.rails):
                for ga in range(groups):
                    for gb in range(groups):
                        if ga == gb:
                            continue
                        link = self._link(
                            fabric.global_link, f"r{r}g{ga}->{gb}", STAGE_FABRIC_UP
                        )
                        self._edge(("rtr", r, ga), ("rtr", r, gb), link)

    @staticmethod
    def _nic_attach(spec: MachineSpec, node: int, local: int) -> Port:
        """The wire-side port a NIC plugs into (flat net or fabric switch)."""
        fabric = spec.fabric
        if fabric is None:
            return ("net",)
        rail = local % fabric.rails
        if fabric.kind == "fat-tree":
            return ("leaf", rail, node // fabric.nodes_per_leaf)
        return ("rtr", rail, node // fabric.nodes_per_group)

    def _build(self, spec: MachineSpec) -> None:
        if spec.fabric is not None:
            self._build_fabric(spec)
        for n, node in enumerate(spec.nodes):
            base = spec.gpu_base(n)
            gpus = range(base, base + node.n_gpus)

            # Local ports: HBM self-copy and the pageable DRAM tx/rx pair.
            for g in gpus:
                hbm = self._link(node.hbm, f"hbm{g}", STAGE_SRC_LOCAL)
                self.self_routes[("gpu", g)] = (hbm,)
            tx = self._link(node.hostmem, f"hostmem_tx{n}", STAGE_HOSTMEM_TX)
            rx = self._link(node.hostmem, f"hostmem_rx{n}", STAGE_HOSTMEM_RX)
            self.self_routes[("pin", n)] = (tx, rx)
            self.self_routes[("pag", n)] = (tx, rx)
            self._edge(("pag", n), ("pin", n), tx, rx)
            self._edge(("pin", n), ("pag", n), tx, rx)

            # Intra-node D2D wiring (listed first so equally-short host
            # detours never win a tie against the direct device path).
            if node.interconnect is Interconnect.PAIR_MESH:
                for a in gpus:
                    for b in gpus:
                        if a != b:
                            nvl = self._link(node.d2d, f"nvl{a}->{b}", STAGE_D2D)
                            self._edge(("gpu", a), ("gpu", b), nvl)
            elif node.interconnect is Interconnect.SWITCH:
                for g in gpus:
                    up = self._link(node.d2d, f"swup{g}", STAGE_D2D)
                    down = self._link(node.d2d, f"swdn{g}", STAGE_SWITCH_DOWN)
                    self._edge(("gpu", g), ("sw", n), up)
                    self._edge(("sw", n), ("gpu", g), down)
            # HOST_STAGED: no device edges; BFS stages D2D through the host.

            # Host <-> device links (C2C or PCIe, per direction per GPU).
            for g in gpus:
                d2h = self.d2h[g] = self._link(node.d2h, f"{node.d2h.kind}{g}", STAGE_SRC_LOCAL)
                h2d = self._link(node.h2d, f"{node.h2d.kind}{g}", STAGE_DST_LOCAL)
                for host in (("pin", n), ("pag", n)):
                    self._edge(("gpu", g), host, d2h)
                    self._edge(host, ("gpu", g), h2d)

            # NIC placement: per GPU (GPUDirect) or one shared per node.
            if node.nic_per_gpu:
                nic_out: Dict[int, int] = {}
                nic_in: Dict[int, int] = {}
                for g in gpus:
                    att = self._nic_attach(spec, n, g - base)
                    out = nic_out[g] = self._link(spec.nic_out, f"ib_out{g}", STAGE_NIC_OUT)
                    inn = nic_in[g] = self._link(spec.nic_in, f"ib_in{g}", STAGE_NIC_IN)
                    self._edge(("gpu", g), att, out)
                    self._edge(att, ("gpu", g), inn)
                # Host traffic rides a bootstrap NIC.  With a multi-rail
                # fabric the host bridge reaches every rail plane through
                # that rail's first NIC (host PCIe sees all HCAs); on the
                # flat wire this is exactly one attach via ib_out<base>.
                rails = spec.fabric.rails if spec.fabric is not None else 1
                for r in range(min(rails, node.n_gpus)):
                    att = self._nic_attach(spec, n, r)
                    self._edge(("pin", n), att, nic_out[base + r])
                    self._edge(att, ("pin", n), nic_in[base + r])
                    self._edge(("pag", n), att, tx, nic_out[base + r])
                    self._edge(att, ("pag", n), nic_in[base + r], rx)
            else:
                att = self._nic_attach(spec, n, 0)
                out = self._link(spec.nic_out, f"ib_out_n{n}", STAGE_NIC_OUT)
                inn = self._link(spec.nic_in, f"ib_in_n{n}", STAGE_NIC_IN)
                # The shared NIC hangs off the host bridge: device traffic
                # reaches it through the pinned-host port.
                self._edge(("pin", n), att, out)
                self._edge(att, ("pin", n), inn)
                self._edge(("pag", n), att, tx, out)
                self._edge(att, ("pag", n), inn, rx)

    # -- search --------------------------------------------------------------
    def search(self, src: Port, dst: Port, blocked=frozenset()) -> Optional[Rows]:
        """Fewest-links rows ``src -> dst`` avoiding ``blocked`` (None if
        there is no such path): uniform-cost search, ties broken by
        adjacency insertion order."""
        seq = 0
        heap: List[Tuple[int, int, Port, Rows]] = [(0, 0, src, ())]
        settled = set()
        while heap:
            cost, _s, port, route = heapq.heappop(heap)
            if port in settled:
                continue
            settled.add(port)
            if port == dst:
                return route
            for nxt, rows in self.adj.get(port, ()):
                if nxt in settled:
                    continue
                if blocked and any(i in blocked for i in rows):
                    continue
                seq += 1
                heapq.heappush(heap, (cost + len(rows), seq, nxt, route + rows))
        return None


class LinkGraph:
    """One fabric's links over its spec's shared :class:`Wiring`."""

    def __init__(self, engine: Engine, spec: MachineSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.wiring = spec.wiring
        #: Row -> its Link, None until first use (:meth:`link`).
        self.built: List[Optional[Link]] = [None] * len(self.wiring.rows)

    # -- links ---------------------------------------------------------------
    def link(self, i: int) -> Link:
        """Row ``i``'s link, built on first use."""
        link = self.built[i]
        if link is None:
            link = self.built[i] = Link(self.engine, *self.wiring.rows[i])
        return link

    def get(self, name: str) -> Optional[Link]:
        """The link named ``name`` (None if the machine has none)."""
        i = self.wiring.index.get(name)
        return None if i is None else self.link(i)

    def __len__(self) -> int:
        return len(self.wiring.index)

    # -- search --------------------------------------------------------------
    def search(self, src: Port, dst: Port, exclude=(), epoch: int = 0) -> Tuple[Link, ...]:
        """Fewest-links path ``src -> dst`` (:meth:`Wiring.search`).

        Same-port routes use the port's self-route (HBM copy, DRAM tx/rx
        bounce).  ``exclude`` is a collection of links the path may not
        acquire — the dataplane's multi-path discovery peels link-disjoint
        routes by re-searching with every claimed link excluded.  Downed
        links (:class:`~repro.hw.links.LinkState`) are never traversed;
        while the caller's link-state ``epoch`` is still 0, the search
        reads the shared healthy routes.
        """
        wiring = self.wiring
        if src == dst:
            rows = wiring.self_routes.get(src)
            if rows is None:
                raise RouteSearchError(f"port {src} has no self-route")
        elif exclude or epoch:
            blocked = {
                i for i, link in enumerate(self.built)
                if link is not None and (not link.up or link in exclude)
            }
            rows = wiring.search(src, dst, blocked)
        else:  # a healthy fabric: every link is up
            key = (src, dst)
            if key not in wiring.routes:
                wiring.routes[key] = wiring.search(src, dst)
            rows = wiring.routes[key]
        if rows is None:
            raise RouteSearchError(
                f"no path from {src} to {dst} in machine spec {self.spec.name!r}"
                + (" avoiding excluded links" if exclude else "")
            )
        return tuple(map(self.link, rows))
