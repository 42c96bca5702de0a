"""Generator templates compiling cluster-scale fabrics into MachineSpecs.

The hand-written catalog stops at two nodes; the regimes the related work
evaluates (GICC, NVSHMEM system analysis) are 512-4096 GPU rail-optimized
fabrics.  This module builds those shapes programmatically::

    fat_tree(gpus=512, rails=4)      # two-level rail-optimized Clos
    dragonfly(gpus=1024, rails=2)    # one-router-per-group dragonfly

and names them for the CLIs (``--machine fat-tree-512``)::

    fat-tree-512                 # 512 GPUs, defaults below
    fat-tree-1024-r2-n8-l16      # -r rails -n gpus/node -l nodes/leaf -s spines
    dragonfly-512-g8             # -g nodes/group

Node internals reuse the GH200 superchip template (NVLink pair mesh, C2C,
NIC per GPU); the fabric adds leaf/spine trunk or dragonfly global link
classes on top.  :func:`wire_path_classes` is the single source of truth
for which inter-node link classes a (src, dst) GPU pair crosses — the
LinkGraph compilation, the topo validator's metrics, and the shard wire
model all derive from it, which is what lets shards price a cross-shard
hop without building the 512-GPU graph.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.hw.params import GH200Params
from repro.hw.spec.catalog import gh200_node
from repro.hw.spec.schema import (
    DragonflyFabric,
    FatTreeFabric,
    LinkClass,
    MachineSpec,
    SpecError,
)
from repro.units import us


def fat_tree(
    gpus: int = 512,
    gpus_per_node: int = 8,
    rails: int = 4,
    nodes_per_leaf: int = 8,
    spines_per_rail: Optional[int] = None,
    params: Optional[GH200Params] = None,
    name: Optional[str] = None,
) -> MachineSpec:
    """A rail-optimized leaf/spine Clos of GH200-style nodes.

    ``spines_per_rail`` defaults to ``nodes_per_leaf`` — with trunk links
    running at twice the NIC rate that makes every rail plane
    non-blocking for uniform traffic.
    """
    if gpus % gpus_per_node:
        raise SpecError(f"fat_tree: {gpus} gpus not divisible by {gpus_per_node}/node")
    nodes = gpus // gpus_per_node
    if nodes % nodes_per_leaf:
        raise SpecError(f"fat_tree: {nodes} nodes not divisible by {nodes_per_leaf}/leaf")
    p = params or GH200Params()
    spines = spines_per_rail if spines_per_rail is not None else nodes_per_leaf
    fabric = FatTreeFabric(
        rails=rails,
        nodes_per_leaf=nodes_per_leaf,
        spines_per_rail=spines,
        trunk_up=LinkClass("trunk_up", 2 * p.ib_bw, 0.5 * us),
        trunk_down=LinkClass("trunk_down", 2 * p.ib_bw, 0.5 * us),
    )
    return MachineSpec(
        name=name or f"fat-tree-{gpus}",
        nodes=(gh200_node(gpus_per_node, p),) * nodes,
        nic_out=LinkClass("nic_out", p.ib_bw, p.ib_latency / 2),
        nic_in=LinkClass("nic_in", p.ib_bw, p.ib_latency / 2),
        params=p,
        fabric=fabric,
    )


def dragonfly(
    gpus: int = 512,
    gpus_per_node: int = 8,
    rails: int = 2,
    nodes_per_group: int = 8,
    params: Optional[GH200Params] = None,
    name: Optional[str] = None,
) -> MachineSpec:
    """A dragonfly of GH200-style nodes: one router per group per rail,
    groups fully connected by global links."""
    if gpus % gpus_per_node:
        raise SpecError(f"dragonfly: {gpus} gpus not divisible by {gpus_per_node}/node")
    nodes = gpus // gpus_per_node
    if nodes % nodes_per_group:
        raise SpecError(
            f"dragonfly: {nodes} nodes not divisible by {nodes_per_group}/group"
        )
    p = params or GH200Params()
    fabric = DragonflyFabric(
        rails=rails,
        nodes_per_group=nodes_per_group,
        global_link=LinkClass("dfly_global", p.ib_bw, 1.0 * us),
    )
    return MachineSpec(
        name=name or f"dragonfly-{gpus}",
        nodes=(gh200_node(gpus_per_node, p),) * nodes,
        nic_out=LinkClass("nic_out", p.ib_bw, p.ib_latency / 2),
        nic_in=LinkClass("nic_in", p.ib_bw, p.ib_latency / 2),
        params=p,
        fabric=fabric,
    )


# -- generator-name grammar ---------------------------------------------------
_GEN_RE = re.compile(r"(fat-tree|dragonfly)-(\d+)((?:-[a-z]\d+)*)")
_OPT_RE = re.compile(r"-([a-z])(\d+)")
#: The options each generator takes, by kind.
_OPTIONS = {"fat-tree": ("r", "n", "l", "s"), "dragonfly": ("r", "n", "g")}


def parse_machine(name: str) -> Optional[MachineSpec]:
    """Build a spec from a generator name; None if the name isn't one.

    Grammar: ``fat-tree-<gpus>`` / ``dragonfly-<gpus>`` with optional
    ``-r<rails> -n<gpus_per_node> -l<nodes_per_leaf> -s<spines_per_rail>
    -g<nodes_per_group>`` suffixes in any order, each at most once and
    at least 1.  Numbers carry no leading zero, so each machine has one name.
    """
    m = _GEN_RE.fullmatch(name)
    if m is None:
        return None
    kind, digits, rest = m.groups()
    if digits.startswith("0") and digits != "0":
        raise SpecError(f"machine {name!r}: gpu count {digits} has a leading zero")
    gpus = int(digits)
    opts: Dict[str, int] = {}
    for key, val in _OPT_RE.findall(rest):
        if val.startswith("0") and val != "0":
            raise SpecError(f"machine {name!r}: option -{key}{val} has a leading zero")
        if key not in _OPTIONS[kind]:
            raise SpecError(
                f"machine {name!r}: unknown option -{key}{val} "
                f"({kind} takes -{', -'.join(_OPTIONS[kind])})"
            )
        if key in opts:
            raise SpecError(f"machine {name!r}: option -{key} given twice")
        if int(val) < 1:
            raise SpecError(f"machine {name!r}: option -{key}{val} must be at least 1")
        opts[key] = int(val)

    if kind == "fat-tree":
        return fat_tree(
            gpus=gpus,
            gpus_per_node=opts.get("n", 8),
            rails=opts.get("r", 4),
            nodes_per_leaf=opts.get("l", 8),
            spines_per_rail=opts.get("s"),
            name=name,
        )
    return dragonfly(
        gpus=gpus,
        gpus_per_node=opts.get("n", 8),
        rails=opts.get("r", 2),
        nodes_per_group=opts.get("g", 8),
        name=name,
    )


def resolve_machine(name: str) -> MachineSpec:
    """Catalog name or generator name -> spec (the CLI entry point)."""
    from repro.hw.spec.catalog import SPECS

    spec = SPECS.get(name)
    if spec is not None:
        return spec
    spec = parse_machine(name)
    if spec is not None:
        return spec
    raise SpecError(
        f"unknown machine {name!r}; known specs: {sorted(SPECS)}, "
        "or a generator name like fat-tree-512 / dragonfly-512-g8"
    )


# -- analytic wire model ------------------------------------------------------
def wire_path_classes(spec: MachineSpec, src: int, dst: int) -> Tuple[LinkClass, ...]:
    """Inter-node link classes a ``src -> dst`` GPU transfer crosses.

    Only defined for cross-node pairs.  The sequence excludes intra-node
    hops (HBM, D2D, PXN forwarding) — it is exactly the fabric segment of
    the graph-searched route, which the generator tests pin.
    """
    ns, nd = spec.node_of(src), spec.node_of(dst)
    if ns == nd:
        raise SpecError(f"gpus {src},{dst} share node {ns}: no wire segment")
    fabric = spec.fabric
    if fabric is None:
        return (spec.nic_out, spec.nic_in)
    if fabric.kind == "fat-tree":
        if ns // fabric.nodes_per_leaf == nd // fabric.nodes_per_leaf:
            return (spec.nic_out, spec.nic_in)
        return (spec.nic_out, fabric.trunk_up, fabric.trunk_down, spec.nic_in)
    # dragonfly
    if ns // fabric.nodes_per_group == nd // fabric.nodes_per_group:
        return (spec.nic_out, spec.nic_in)
    return (spec.nic_out, fabric.global_link, spec.nic_in)


def wire_latency(spec: MachineSpec, src: int, dst: int) -> float:
    """First-byte latency of the wire segment, incl. PXN rail forwarding."""
    lat = sum(cls.latency for cls in wire_path_classes(spec, src, dst))
    if spec.fabric is not None and spec.rail_of(src) != spec.rail_of(dst):
        d2d = spec.node_spec_of(src).d2d
        if d2d is not None:
            lat += d2d.latency  # PXN hop to a same-node GPU on dst's rail
    return lat


def wire_bandwidth(spec: MachineSpec, src: int, dst: int) -> float:
    """Bottleneck bandwidth of the wire segment."""
    return min(cls.bandwidth for cls in wire_path_classes(spec, src, dst))


def min_internode_latency(spec: MachineSpec) -> float:
    """The conservative lookahead bound: no cross-node byte can become
    visible sooner than this after its send.  Equals the cheapest
    relationship class (same-leaf / same-group / flat wire)."""
    if spec.n_nodes < 2:
        raise SpecError(f"spec {spec.name!r} has a single node: no internode wire")
    return spec.nic_out.latency + spec.nic_in.latency


# -- fabric metrics (topo CLI) ------------------------------------------------
def fabric_metrics(spec: MachineSpec) -> Dict[str, object]:
    """Analytic shape/capacity summary for generated fabrics.

    ``diameter_links`` counts fabric + NIC (+ PXN d2d) hops on the worst
    GPU pair; ``bisection_bw`` is the capacity crossing an even node
    bisection, in bytes/s.
    """
    fabric = spec.fabric
    nodes = spec.n_nodes
    metrics: Dict[str, object] = {
        "machine": spec.name,
        "nodes": nodes,
        "gpus": spec.n_gpus,
        "rails": 1 if fabric is None else fabric.rails,
        "lookahead_s": min_internode_latency(spec) if nodes > 1 else None,
    }
    if fabric is None:
        metrics["kind"] = "flat"
        metrics["diameter_links"] = 2 if nodes > 1 else 1
        metrics["bisection_bw"] = (spec.n_gpus // 2) * min(
            spec.nic_out.bandwidth, spec.nic_in.bandwidth
        )
        return metrics
    pxn = 1 if fabric.rails > 1 else 0
    if fabric.kind == "fat-tree":
        leaves = nodes // fabric.nodes_per_leaf
        metrics["kind"] = "fat-tree"
        metrics["leaves_per_rail"] = leaves
        metrics["spines_per_rail"] = fabric.spines_per_rail
        metrics["diameter_links"] = (4 if leaves > 1 else 2) + pxn
        if leaves > 1:
            metrics["bisection_bw"] = (
                (leaves // 2) * fabric.spines_per_rail
                * fabric.rails * fabric.trunk_up.bandwidth
            )
        else:
            metrics["bisection_bw"] = (spec.n_gpus // 2) * spec.nic_out.bandwidth
    else:
        groups = nodes // fabric.nodes_per_group
        metrics["kind"] = "dragonfly"
        metrics["groups"] = groups
        metrics["diameter_links"] = (3 if groups > 1 else 2) + pxn
        if groups > 1:
            left = groups // 2
            metrics["bisection_bw"] = (
                left * (groups - left) * fabric.rails * fabric.global_link.bandwidth
            )
        else:
            metrics["bisection_bw"] = (spec.n_gpus // 2) * spec.nic_out.bandwidth
    return metrics


def format_metrics(metrics: Dict[str, object]) -> List[str]:
    """Human lines for the topo CLI."""
    from repro.units import GBps

    lines = [
        f"fabric kind: {metrics['kind']}, {metrics['nodes']} node(s), "
        f"{metrics['gpus']} gpu(s), {metrics['rails']} rail(s)"
    ]
    if "leaves_per_rail" in metrics:
        lines.append(
            f"  {metrics['leaves_per_rail']} leaf / {metrics['spines_per_rail']} "
            "spine switch(es) per rail"
        )
    if "groups" in metrics:
        lines.append(f"  {metrics['groups']} group(s) per rail")
    lines.append(f"  diameter: {metrics['diameter_links']} links")
    lines.append(f"  bisection bandwidth: {metrics['bisection_bw'] / GBps:.0f} GB/s")
    if metrics["lookahead_s"] is not None:
        lines.append(f"  conservative lookahead: {metrics['lookahead_s'] * 1e6:.2f} us")
    return lines
