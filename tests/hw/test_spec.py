"""Machine specs: route properties, route caching, spec-distinct routing.

The property sweep pins the routing invariants for *every* catalog spec:
routes exist for all endpoint combinations, never repeat a link (acyclic),
and acquire links in strictly increasing stage — the hierarchical order
(tx < nic_out < nic_in < rx) that makes concurrent transfers deadlock-free.
"""

import dataclasses

import numpy as np
import pytest

from repro.cuda.ipc import IpcError, IpcMemHandle
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import GH200Params
from repro.hw.spec import (
    Interconnect,
    LinkClass,
    MachineSpec,
    NodeSpec,
    SpecError,
    dgx_nvswitch_spec,
    gh200_spec,
    named_spec,
    pcie_nop2p_spec,
)
from repro.hw.spec.cli import validate_spec
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.units import GBps, us

ALL_SPECS = [gh200_spec(2, 4), dgx_nvswitch_spec(1, 8), pcie_nop2p_spec(2, 2)]


def _fabric(spec):
    return Fabric(Engine(), spec)


def _buf(fab, space, gpu=None, node=None, n=8):
    if gpu is not None:
        node = fab.spec.node_of(gpu)
    return Buffer.alloc(n, space=space, node=node or 0, gpu=gpu)


def _endpoint_buffers(fab):
    """One buffer per (MemSpace, location) combination the spec offers."""
    bufs = []
    for g in range(fab.spec.n_gpus):
        bufs.append(_buf(fab, MemSpace.DEVICE, gpu=g))
        bufs.append(_buf(fab, MemSpace.UNIFIED, gpu=g))
    for node in range(fab.spec.n_nodes):
        bufs.append(_buf(fab, MemSpace.HOST, node=node))
        bufs.append(_buf(fab, MemSpace.PINNED, node=node))
    return bufs


# --------------------------------------------------------------------------
# Satellite: route property sweep over every spec and endpoint combination
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_route_properties_all_endpoint_pairs(spec):
    fab = _fabric(spec)
    bufs = _endpoint_buffers(fab)
    for src in bufs:
        for dst in bufs:
            route = fab.route(src, dst)
            # Non-empty: every pair of locations is connected.
            assert route, f"{src!r} -> {dst!r} produced an empty route"
            # Acyclic: no link (port) is acquired twice.
            names = [link.name for link in route]
            assert len(set(names)) == len(names), names
            # Hierarchical acquisition: strictly increasing stages, so
            # concurrent transfers all climb the same ladder.
            stages = [link.stage for link in route]
            if src.location() != dst.location():
                assert stages == sorted(stages), list(zip(names, stages))
                assert len(set(stages)) == len(stages), list(zip(names, stages))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_cli_validator_agrees(spec):
    assert validate_spec(spec) == []


# --------------------------------------------------------------------------
# Acceptance: route resolution is cached (one search per location pair)
# --------------------------------------------------------------------------

def test_route_cache_computes_each_pair_exactly_once():
    fab = _fabric(gh200_spec(2, 4))
    a, b = _buf(fab, MemSpace.DEVICE, gpu=0), _buf(fab, MemSpace.DEVICE, gpu=5)
    assert fab.route_computations == 0
    first = fab.route(a, b)
    assert fab.route_computations == 1
    for _ in range(10):
        assert fab.route(a, b) is first
    assert fab.route_computations == 1
    # A different buffer at the *same* location hits the same cache entry.
    a2 = _buf(fab, MemSpace.DEVICE, gpu=0, n=64)
    assert fab.route(a2, b) is first
    assert fab.route_computations == 1
    # The reverse direction is a distinct pair (distinct link set).
    back = fab.route(b, a)
    assert fab.route_computations == 2
    assert {l.name for l in back}.isdisjoint({l.name for l in first})


def test_repeated_transfers_recompute_nothing():
    engine = Engine()
    fab = Fabric(engine, gh200_spec(1, 4))
    src, dst = _buf(fab, MemSpace.DEVICE, gpu=0), _buf(fab, MemSpace.DEVICE, gpu=1)
    for _ in range(5):
        engine.run(fab.dataplane.put(src, dst))
    assert fab.route_computations == 1


# --------------------------------------------------------------------------
# Acceptance: the two non-GH200 specs route genuinely differently
# --------------------------------------------------------------------------

def test_nvswitch_d2d_serializes_through_shared_ports():
    fab = _fabric(dgx_nvswitch_spec(1, 8))
    g0, g1, g2 = (_buf(fab, MemSpace.DEVICE, gpu=g) for g in range(3))
    r01, r02 = fab.route(g0, g1), fab.route(g0, g2)
    # Two hops through the switch: source up-port then destination down-port.
    assert [l.name for l in r01] == ["swup0", "swdn1"]
    assert [l.name for l in r02] == ["swup0", "swdn2"]
    # Fan-out from one GPU shares its *single* up-port (the serialization
    # a pair mesh does not have).
    assert r01[0] is r02[0]
    # The pair mesh, by contrast, uses independent links per destination.
    mesh = _fabric(gh200_spec(1, 4))
    m01 = mesh.route(_buf(mesh, MemSpace.DEVICE, gpu=0), _buf(mesh, MemSpace.DEVICE, gpu=1))
    m02 = mesh.route(_buf(mesh, MemSpace.DEVICE, gpu=0), _buf(mesh, MemSpace.DEVICE, gpu=2))
    assert len(m01) == 1 and len(m02) == 1 and m01[0] is not m02[0]


def test_nop2p_d2d_stages_through_host():
    fab = _fabric(pcie_nop2p_spec(2, 2))
    g0, g1 = _buf(fab, MemSpace.DEVICE, gpu=0), _buf(fab, MemSpace.DEVICE, gpu=1)
    # Same node, but no P2P: the payload bounces through host PCIe links.
    assert [l.name for l in fab.route(g0, g1)] == ["pcie_d2h0", "pcie_h2d1"]
    # And the peers cannot IPC-map each other despite sharing the node.
    assert fab.spec.same_node(0, 1)
    assert not fab.spec.can_peer_map(0, 1)


def test_nop2p_inter_node_shares_the_node_nic():
    fab = _fabric(pcie_nop2p_spec(2, 2))
    g0 = _buf(fab, MemSpace.DEVICE, gpu=0)
    g2, g3 = _buf(fab, MemSpace.DEVICE, gpu=2), _buf(fab, MemSpace.DEVICE, gpu=3)
    r02, r03 = fab.route(g0, g2), fab.route(g0, g3)
    # No GPUDirect: egress through host PCIe into the shared node NIC.
    assert [l.name for l in r02] == ["pcie_d2h0", "ib_out_n0", "ib_in_n1", "pcie_h2d2"]
    assert r02[1] is r03[1]  # both destinations funnel through one NIC
    # GH200 (NIC per superchip) goes device-direct instead.
    gh = _fabric(gh200_spec(2, 1))
    direct = gh.route(_buf(gh, MemSpace.DEVICE, gpu=0), _buf(gh, MemSpace.DEVICE, gpu=1))
    assert [l.name for l in direct] == ["ib_out0", "ib_in1"]


def test_nop2p_rejects_ipc_open_even_intra_node():
    fab = _fabric(pcie_nop2p_spec(2, 2))
    owned = _buf(fab, MemSpace.DEVICE, gpu=1)
    handle = IpcMemHandle(owned)
    with pytest.raises(IpcError, match="peer-to-peer"):
        handle.open(fab.spec, 0)
    # Cross-node keeps the historical wording.
    with pytest.raises(IpcError, match="different nodes"):
        handle.open(fab.spec, 2)


def test_switch_peers_can_ipc_map():
    spec = dgx_nvswitch_spec(1, 8)
    assert spec.can_peer_map(0, 7)
    assert spec.can_peer_map(3, 3)


# --------------------------------------------------------------------------
# Spec schema
# --------------------------------------------------------------------------

def test_named_spec_lookup():
    assert named_spec("dgx-nvswitch").nodes[0].interconnect is Interconnect.SWITCH
    with pytest.raises(SpecError, match="unknown machine spec"):
        named_spec("cray-ex")


def test_schema_rejects_inconsistent_nodes():
    hbm = LinkClass("hbm", 3000 * GBps, 0.05 * us)
    pcie = LinkClass("pcie", 24 * GBps, 1.8 * us)
    host = LinkClass("hostmem", 400 * GBps, 0.05 * us)
    with pytest.raises(SpecError, match="needs a d2d"):
        NodeSpec(
            n_gpus=1, interconnect=Interconnect.SWITCH,
            hbm=hbm, d2h=pcie, h2d=pcie, hostmem=host, d2d=None,
        )
    with pytest.raises(SpecError, match="must not define"):
        NodeSpec(
            n_gpus=1, interconnect=Interconnect.HOST_STAGED,
            hbm=hbm, d2h=pcie, h2d=pcie, hostmem=host, d2d=pcie,
        )
    with pytest.raises(SpecError, match="bandwidth"):
        LinkClass("bad", 0.0, 1.0 * us)
    with pytest.raises(SpecError, match="at least one node"):
        MachineSpec(name="empty", nodes=(), nic_out=pcie, nic_in=pcie)


@pytest.mark.parametrize("field, value", [
    ("sm_hbm_bw", 0.0), ("sm_hbm_bw", -1.0), ("sm_hbm_bw", float("nan")),
    ("sm_count", 0), ("sm_count", -4),
])
def test_schema_rejects_bad_gpu_constants(field, value):
    msg = f"GH200Params: {field} must be"
    with pytest.raises(SpecError, match=msg):
        GH200Params(**{field: value})
    with pytest.raises(SpecError, match=msg):
        pcie_nop2p_spec(1, 2).with_params(**{field: value})
    # Params that slipped past their constructor fail validation as a
    # schema problem, not as a link error or a division at kernel launch.
    bad = GH200Params()
    object.__setattr__(bad, field, value)
    spec = dataclasses.replace(pcie_nop2p_spec(1, 2), params=bad)
    with pytest.raises(SpecError, match=msg):
        spec.validate()
    (problem,) = validate_spec(spec)
    assert problem.startswith(f"schema: {msg}")


def test_per_gpu_constants_reach_the_device():
    from repro.mpi.world import World

    with World(pcie_nop2p_spec(2, 2)) as world:
        assert all(d.params.sm_count == 108 for d in world.devices)
        assert world.devices[0].params.sm_hbm_bw == 1500 * GBps
    with World(gh200_spec(1, 4)) as gh:
        assert gh.devices[0].params.sm_count == 132  # model default preserved


def test_world_runs_on_every_catalog_spec():
    from repro.mpi.world import World

    def main(ctx):
        n = 256
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n, fill=3.0)
            yield from ctx.comm.send(sbuf, dest=1, tag=0)
        else:
            rbuf = ctx.gpu.alloc(n)
            yield from ctx.comm.recv(rbuf, source=0, tag=0)
            assert np.all(rbuf.data == 3.0)

    for spec in ALL_SPECS:
        World(spec).run(main, nprocs=2)
