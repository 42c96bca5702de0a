"""``python -m repro topo``: print and validate a machine spec's link table.

    python -m repro topo --list            # known spec names
    python -m repro topo gh200-2x4         # link table + route validation
    python -m repro topo pcie-nop2p --routes  # also dump resolved routes
    python -m repro topo fat-tree-512      # generated fabric + metrics

Validation builds the full link graph and resolves routes, checking that
each resolved route acquires links in strictly increasing stage (the
deadlock-freedom ladder) — the same invariant the property tests sweep.
Small specs validate every (src-port, dst-port) pair; generated fabrics
(hundreds of GPUs) validate a deterministic sample covering every
relationship class (same node, same leaf/group, cross leaf/group, cross
rail, host ports) and report analytic shape metrics — diameter, bisection
bandwidth, rail count, conservative lookahead.
"""

from __future__ import annotations

import argparse
from typing import Iterable, List, Tuple

from repro.hw.spec.catalog import SPECS
from repro.hw.spec.generators import fabric_metrics, format_metrics, resolve_machine
from repro.hw.spec.graph import LinkGraph, Port, RouteSearchError
from repro.hw.spec.schema import MachineSpec, SpecError
from repro.sim.engine import Engine
from repro.units import GBps, us

#: Above this many GPUs, validation samples pairs instead of sweeping all.
_EXHAUSTIVE_GPU_LIMIT = 32


def _ports(spec: MachineSpec) -> List[Port]:
    ports: List[Port] = [("gpu", g) for g in range(spec.n_gpus)]
    for n in range(spec.n_nodes):
        ports.append(("pin", n))
        ports.append(("pag", n))
    return ports


def _sample_ports(spec: MachineSpec) -> List[Port]:
    """A small deterministic port set hitting every relationship class.

    Picks GPUs of the first and last node, of a same-leaf (same-group)
    neighbour node, and of the first node of a different leaf/group —
    covering same-node, same-leaf, cross-leaf and (via per-node GPU
    spread) cross-rail pairs, plus one node's host ports.
    """
    fabric = spec.fabric
    span = fabric.nodes_per_leaf if fabric is not None and fabric.kind == "fat-tree" \
        else fabric.nodes_per_group if fabric is not None else 1
    nodes = sorted({0, 1 % spec.n_nodes, span % spec.n_nodes, spec.n_nodes - 1})
    gpus: List[int] = []
    for n in nodes:
        base = spec.gpu_base(n)
        count = spec.nodes[n].n_gpus
        rails = fabric.rails if fabric is not None else 1
        # One GPU per rail (capped) so cross-rail pairs are represented.
        gpus.extend(base + r for r in range(min(rails, count)))
        gpus.append(base + count - 1)
    ports: List[Port] = [("gpu", g) for g in sorted(set(gpus))]
    ports.append(("pin", 0))
    ports.append(("pag", 0))
    return ports


def _route_rows(graph: LinkGraph, ports: List[Port]) -> Iterable[Tuple[Port, Port, Tuple]]:
    for src in ports:
        for dst in ports:
            yield src, dst, graph.search(src, dst)


def validate_spec(spec: MachineSpec) -> List[str]:
    """Return a list of problems (empty = valid).

    Checks the schema invariants, then resolves endpoint-pair routes
    (exhaustive for small specs, relationship-class sample for generated
    fabrics) and verifies the hierarchical acquisition order.
    """
    problems: List[str] = []
    try:
        spec.validate()
    except SpecError as exc:
        return [f"schema: {exc}"]
    graph = LinkGraph(Engine(), spec)
    sampled = spec.n_gpus > _EXHAUSTIVE_GPU_LIMIT
    ports = _sample_ports(spec) if sampled else _ports(spec)
    try:
        for src, dst, route in _route_rows(graph, ports):
            if not route:
                problems.append(f"route {src} -> {dst}: empty")
                continue
            stages = [link.stage for link in route]
            if src != dst and stages != sorted(set(stages)):
                problems.append(
                    f"route {src} -> {dst}: stages not strictly increasing: "
                    f"{[(l.name, l.stage) for l in route]}"
                )
    except RouteSearchError as exc:
        problems.append(f"routing: {exc}")
    return problems


def _fmt_link(row) -> str:
    return (
        f"{row.name:<14} {row.kind:<10} stage={row.stage} "
        f"{row.bandwidth / GBps:8.1f} GB/s {row.latency / us:7.2f} us"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro topo",
        description="Print and validate a machine spec's link table.",
    )
    parser.add_argument(
        "spec", nargs="?",
        help="spec name (see --list) or generator name (fat-tree-512)",
    )
    parser.add_argument("--list", action="store_true", help="list known specs")
    parser.add_argument("--routes", action="store_true", help="dump resolved routes")
    args = parser.parse_args(argv)

    if args.list or args.spec is None:
        for spec_name, spec in SPECS.items():
            print(f"{spec_name:<14} {spec.n_nodes} node(s) x {spec.uniform_gpus_per_node} gpu(s)")
        print("generators     fat-tree-<gpus>[-r#-n#-l#-s#], dragonfly-<gpus>[-r#-n#-g#]")
        return 0

    try:
        spec = resolve_machine(args.spec)
    except SpecError as exc:
        parser.error(str(exc))

    print(f"machine {spec.name}: {spec.n_nodes} node(s), {spec.n_gpus} gpu(s)")
    small = spec.n_gpus <= _EXHAUSTIVE_GPU_LIMIT
    if small:
        for n, node in enumerate(spec.nodes):
            print(f"  node {n}: {node.n_gpus} gpu(s), {node.interconnect.value} interconnect, "
                  f"{'NIC per GPU' if node.nic_per_gpu else 'shared node NIC'}")
        print(f"\n{len(spec.wiring.rows)} links:")
        for row in spec.wiring.rows:
            print(f"  {_fmt_link(row)}")
    else:
        node = spec.nodes[0]
        print(f"  uniform nodes: {node.n_gpus} gpu(s), {node.interconnect.value} "
              f"interconnect, {'NIC per GPU' if node.nic_per_gpu else 'shared node NIC'}")
        print(f"  {len(spec.wiring.rows)} links total (table elided; see --routes sample)")
    print()
    for line in format_metrics(fabric_metrics(spec)):
        print(line)

    if args.routes:
        ports = _ports(spec) if small else _sample_ports(spec)
        print("\nroutes:")
        for src, dst, route in _route_rows(LinkGraph(Engine(), spec), ports):
            names = " -> ".join(link.name for link in route)
            print(f"  {src} -> {dst}: {names}")

    problems = validate_spec(spec)
    if problems:
        print(f"\nINVALID: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    scope = "all endpoint-pair" if small else "sampled relationship-class"
    print(f"\nvalid: {scope} routes resolve with hierarchical link order")
    return 0
