"""Fabric generators: grammar, metrics, and the analytic-wire == graph pin."""

import pytest

from repro.hw.spec.cli import validate_spec
from repro.hw.spec.generators import (
    fabric_metrics,
    fat_tree,
    min_internode_latency,
    parse_machine,
    resolve_machine,
    wire_bandwidth,
    wire_latency,
    wire_path_classes,
)
from repro.hw.spec.graph import LinkGraph
from repro.hw.spec.schema import (
    STAGE_FABRIC_DOWN,
    STAGE_FABRIC_UP,
    STAGE_NIC_IN,
    STAGE_NIC_OUT,
    SpecError,
)
from repro.sim.engine import Engine


# -- grammar -----------------------------------------------------------------

def test_default_fat_tree_512():
    spec = resolve_machine("fat-tree-512")
    assert spec.n_nodes == 64
    assert spec.n_gpus == 512
    assert spec.fabric.kind == "fat-tree"
    assert spec.fabric.rails == 4


def test_option_suffixes():
    spec = parse_machine("fat-tree-64-r2-n8-l4-s2")
    assert spec.n_nodes == 8
    assert spec.fabric.rails == 2
    assert spec.fabric.nodes_per_leaf == 4
    assert spec.fabric.spines_per_rail == 2
    dfly = parse_machine("dragonfly-128-r2-g4")
    assert dfly.fabric.kind == "dragonfly"
    assert dfly.fabric.nodes_per_group == 4


def test_non_generator_names_return_none():
    assert parse_machine("gh200-2x4") is None
    assert parse_machine("fat-tree") is None


_BAD_OPTIONS = {
    "fat-tree-512-z3": "unknown option -z3",
    "fat-tree-16-x3": "unknown option -x3",
    "dragonfly-16-l2": "unknown option -l2",
    "fat-tree-16-r2-r4": "option -r given twice",
    "fat-tree-16-n0": "option -n0 must be at least 1",
    "fat-tree-16-n4-l0": "option -l0 must be at least 1",
    "dragonfly-16-g0": "option -g0 must be at least 1",
    "dragonfly-16-n0": "option -n0 must be at least 1",
}


@pytest.mark.parametrize("name", sorted(_BAD_OPTIONS))
def test_bad_option_rejected(name):
    message = _BAD_OPTIONS[name]
    with pytest.raises(SpecError, match=message):
        parse_machine(name)


def test_resolve_machine_prefers_catalog():
    spec = resolve_machine("gh200-2x4")
    assert spec.fabric is None
    with pytest.raises(SpecError, match="unknown machine"):
        resolve_machine("hyper-cube-512")


def test_indivisible_shapes_rejected():
    with pytest.raises(SpecError, match="not divisible"):
        fat_tree(gpus=100, gpus_per_node=8)
    with pytest.raises(SpecError):  # 8 gpus/node not divisible into 3 rails
        resolve_machine("fat-tree-64-r3")


# -- metrics -----------------------------------------------------------------

def test_fat_tree_metrics():
    m = fabric_metrics(resolve_machine("fat-tree-512"))
    assert m["nodes"] == 64 and m["gpus"] == 512 and m["rails"] == 4
    assert m["leaves_per_rail"] == 8 and m["spines_per_rail"] == 8
    assert m["diameter_links"] == 5  # nic + trunk up/down + nic + pxn hop
    # 4 leaves cross the bisection x 8 spines x 4 rails x trunk bw
    spec = resolve_machine("fat-tree-512")
    assert m["bisection_bw"] == 4 * 8 * 4 * spec.fabric.trunk_up.bandwidth
    assert m["lookahead_s"] == pytest.approx(min_internode_latency(spec))


def test_dragonfly_metrics():
    m = fabric_metrics(resolve_machine("dragonfly-512"))
    assert m["kind"] == "dragonfly"
    assert m["groups"] == 8
    assert m["diameter_links"] == 4


# -- wire model vs compiled graph -------------------------------------------

#: The stages of the inter-node links: NICs, trunks and dragonfly globals.
_WIRE_STAGES = {STAGE_NIC_OUT, STAGE_FABRIC_UP, STAGE_FABRIC_DOWN, STAGE_NIC_IN}


def _graph_wire_segment(route):
    """The fabric (inter-node) portion of a graph-searched route."""
    return [link for link in route if link.stage in _WIRE_STAGES]


@pytest.mark.parametrize("machine", ["fat-tree-32-r2-l2", "dragonfly-32-r2-g2"])
def test_analytic_wire_matches_graph_route(machine):
    spec = resolve_machine(machine)
    graph = LinkGraph(Engine(), spec)
    # Same-rail cross-leaf/cross-group, same-rail same-leaf, and
    # cross-rail pairs; gpu 0 is (node 0, rail 0).
    pairs = [(0, 8), (0, 24), (0, 25)]
    for src, dst in pairs:
        route = graph.search(("gpu", src), ("gpu", dst))
        segment = _graph_wire_segment(route)
        classes = wire_path_classes(spec, src, dst)
        assert [link.kind for link in segment] == [c.kind for c in classes], (src, dst)
        lat = sum(link.latency for link in segment)
        if spec.rail_of(src) != spec.rail_of(dst):
            lat += spec.nodes[0].d2d.latency  # PXN hop the wire model prices
        assert wire_latency(spec, src, dst) == pytest.approx(lat)
        assert wire_bandwidth(spec, src, dst) == pytest.approx(
            min(link.bandwidth for link in segment)
        )


def test_wire_model_undefined_same_node():
    spec = resolve_machine("fat-tree-32-r2-l2")
    with pytest.raises(SpecError, match="no wire segment"):
        wire_path_classes(spec, 0, 1)


def test_lookahead_needs_two_nodes():
    from repro.shard import local_spec

    single = local_spec(resolve_machine("fat-tree-32-r2-l2"), 0)
    with pytest.raises(SpecError, match="single node"):
        min_internode_latency(single)


# -- stage ladder ------------------------------------------------------------

@pytest.mark.parametrize("machine", [
    "fat-tree-32-r2-l2", "dragonfly-32-r2-g2", "fat-tree-512",
])
def test_generated_specs_validate(machine):
    assert validate_spec(resolve_machine(machine)) == []
