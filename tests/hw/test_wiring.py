"""Pins on what a fabric's link wiring exposes.

The link table ``python -m repro topo`` prints, the per-kind telemetry a
snapshot reports and the number of route searches a fabric runs are
pinned to values recorded before link wiring was shared between fabrics,
so compiling a spec's wiring once must leave every one of them unchanged.
"""

import dataclasses
import gc
import hashlib

import pytest

from repro.bench.telemetry import snapshot
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.catalog import SPECS, gh200_spec
from repro.hw.spec.cli import main as topo_main
from repro.hw.spec.generators import resolve_machine
from repro.hw.topology import Fabric
from repro.shard.shard import local_spec
from repro.sim.engine import Engine


def _dev(spec, gpu, n=64, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=spec.node_of(gpu), gpu=gpu, fill=fill
    )


def _host(node, n=64, pinned=True):
    space = MemSpace.PINNED if pinned else MemSpace.HOST
    return Buffer.alloc(n, space=space, node=node)


# -- topo link tables ----------------------------------------------------------

TOPO_DIGESTS = {
    "gh200-2x4": "655af101fa50408c31ede569d93b6b418aaecaade22d9ae5ece5099c5bea10ed",
    "gh200-1x4": "23166cc6034a9f37fe460faeb04b0484edcc8a0df9a58f0f431938f23cd304b3",
    "gh200-2x1": "107bcf6f6828a7e28eefd31df03f9f9915591b7080d3051996ea0195f2c444a4",
    "dgx-nvswitch": "51ed8e3f1f2c5dd3e9117672d75d236be3fba489de64649c9f576639a86db7b0",
    "pcie-nop2p": "b2d738d36abc957b000a2438cde57ec88731a7881c59584415f0924eb035b25c",
}


@pytest.mark.parametrize("name", sorted(TOPO_DIGESTS))
def test_topo_stdout_is_pinned(name, capsys):
    assert topo_main([name]) == 0
    out = capsys.readouterr().out
    assert "\nvalid: " in out
    assert hashlib.sha256(out.encode()).hexdigest() == TOPO_DIGESTS[name]


def test_catalog_is_pinned():
    assert sorted(SPECS) == sorted(TOPO_DIGESTS)


# -- telemetry -----------------------------------------------------------------

def test_snapshot_kinds_bytes_and_transfers_are_pinned():
    spec = SPECS["gh200-2x4"]
    engine = Engine()
    fab = Fabric(engine, spec)
    dp = fab.dataplane
    dp.put(_dev(spec, 0, fill=1.0), _dev(spec, 1))            # nvlink
    dp.put(_dev(spec, 2, fill=2.0), _dev(spec, 6))            # inter-node
    dp.put(_dev(spec, 3, fill=3.0), _host(0))                 # c2c d2h
    dp.put(_host(1, pinned=False), _dev(spec, 5))             # pageable -> c2c h2d
    engine.run()
    snap = snapshot(fab)
    rows = [(k, v.bytes, v.transfers) for k, v in snap.classes.items()]
    # hbm and hostmem carry nothing here and are still reported.
    assert rows == [
        ("hbm", 0, 0), ("hostmem", 0, 0), ("nvlink", 512, 1),
        ("c2c_d2h", 512, 1), ("c2c_h2d", 512, 1), ("nic_out", 512, 1),
        ("nic_in", 512, 1),
    ]


# -- route searches ------------------------------------------------------------

def test_route_computations_are_pinned():
    spec = SPECS["gh200-2x4"]
    counts, routes = [], []
    for _ in range(2):
        fab = Fabric(Engine(), spec)
        a, b, c = _dev(spec, 0), _dev(spec, 1), _dev(spec, 5)
        h0, h1 = _host(0), _host(1, pinned=False)
        seq = [(a, b), (a, b), (b, a), (a, c), (a, b), (c, a), (a, a),
               (a, a), (h0, a), (h1, a), (h0, a), (a, h1), (b, c)]
        for src, dst in seq:
            routes.append(fab.route(src, dst))
            counts.append(fab.route_computations)
    assert counts == [1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8, 9] * 2
    first, second = routes[:13], routes[13:]
    # Same link names on both fabrics, but each fabric owns its links.
    assert [[l.name for l in r] for r in first] == [[l.name for l in r] for r in second]
    assert not {id(l) for r in first for l in r} & {id(l) for r in second for l in r}


# -- fault isolation -----------------------------------------------------------

def test_a_fault_stays_on_its_own_fabric():
    # A fresh spec object: no fabric has routed on it before this test.
    spec = gh200_spec(1, 4)
    a, b = _dev(spec, 0), _dev(spec, 1)
    first, second = Fabric(Engine(), spec), Fabric(Engine(), spec)
    first.link_state.down_link("nvl0->1")
    detour = first.route(a, b)
    assert "nvl0->1" not in [l.name for l in detour]
    assert all(l.up for l in detour)
    assert [l.name for l in second.route(a, b)] == ["nvl0->1"]
    third = Fabric(Engine(), spec)
    route = third.route(a, b)
    assert [l.name for l in route] == ["nvl0->1"] and route[0].up
    assert first.route(a, b) == detour


# -- one wiring per spec, links on first use -------------------------------------

def test_fabrics_of_one_spec_share_its_wiring():
    spec = gh200_spec(2, 4)
    first, second = Fabric(Engine(), spec), Fabric(Engine(), spec)
    assert first.graph.wiring is second.graph.wiring is spec.wiring
    assert first.spec == SPECS["gh200-2x4"]  # the cache is not a field


def test_cuts_of_one_node_template_share_one_wiring():
    cluster = resolve_machine("fat-tree-32-r2-l2")
    cuts = [local_spec(cluster, n) for n in range(cluster.n_nodes)]
    assert [c.name for c in cuts[:2]] == ["fat-tree-32-r2-l2#n0", "fat-tree-32-r2-l2#n1"]
    assert all(c.wiring is cuts[0].wiring for c in cuts)
    assert cluster.cut_wirings == {cluster.nodes[0]: cuts[0].wiring}


def test_links_are_built_on_first_use():
    spec = SPECS["gh200-2x4"]
    fab = Fabric(Engine(), spec)
    assert list(fab.iter_links()) == []
    assert fab.link_kinds() == [
        "hbm", "hostmem", "nvlink", "c2c_d2h", "c2c_h2d", "nic_out", "nic_in",
    ]
    route = fab.route(_dev(spec, 1), _dev(spec, 6))
    flag = fab.d2h_link(2)
    assert fab.d2h_link(2) is flag and flag.name == "c2c_d2h2"
    # Registration order, whatever order the links were built in.
    assert [l.name for l in fab.iter_links()] == ["c2c_d2h2", "ib_out1", "ib_in6"]
    assert [l.name for l in route] == ["ib_out1", "ib_in6"]
    assert fab.link_state.find("ib_out1") is route[0]
    assert fab.copy_engine(3) is fab.copy_engine(3)
    assert fab.copy_engine(3).name == "gpu3.ce"


def test_a_second_node_cut_fabric_allocates_little():
    cluster = resolve_machine("fat-tree-512")
    Fabric(Engine(), local_spec(cluster, 0))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        fab = Fabric(Engine(), local_spec(cluster, 3))
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert fab.spec.name == "fat-tree-512#n3"
    assert grown <= 100, grown


def test_a_bad_link_fails_when_the_fabric_is_built():
    spec = gh200_spec(1, 2)
    bad = dataclasses.replace(spec.nodes[0].hbm)
    object.__setattr__(bad, "bandwidth", 0.0)  # slips past LinkClass's own check
    node = dataclasses.replace(spec.nodes[0], hbm=bad)
    broken = dataclasses.replace(spec, nodes=(node,))
    with pytest.raises(ValueError, match="link hbm0: bandwidth must be positive"):
        Fabric(Engine(), broken)
