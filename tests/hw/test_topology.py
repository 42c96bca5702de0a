"""Topology shape queries, route resolution, dataplane transfers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE, PAPER_TESTBED, TestbedConfig
from repro.hw.topology import Fabric, RouteError, Topology
from repro.sim.engine import Engine
from repro.units import us, GBps


def test_topology_shape():
    t = Topology(PAPER_TESTBED)
    assert t.n_gpus == 8
    assert t.node_of(0) == 0 and t.node_of(4) == 1
    assert t.local_index(5) == 1
    assert t.same_node(0, 3) and not t.same_node(3, 4)
    assert t.gpus_on_node(1) == [4, 5, 6, 7]


def test_topology_bounds():
    t = Topology(ONE_NODE)
    with pytest.raises(IndexError):
        t.node_of(4)
    with pytest.raises(IndexError):
        t.gpus_on_node(1)


def _mk(engine=None, config=PAPER_TESTBED):
    engine = engine or Engine()
    return engine, Fabric(engine, config)


def dev(fab, gpu, n=8):
    return Buffer.alloc(n, space=MemSpace.DEVICE, node=fab.topo.node_of(gpu), gpu=gpu)


def host(fab, node, n=8, pinned=False):
    return Buffer.alloc(n, space=MemSpace.PINNED if pinned else MemSpace.HOST, node=node)


def test_route_same_gpu():
    _e, fab = _mk()
    r = fab.route(dev(fab, 0), dev(fab, 0))
    assert [l.name for l in r] == ["hbm0"]


def test_route_nvlink_pair():
    _e, fab = _mk()
    r = fab.route(dev(fab, 0), dev(fab, 2))
    assert [l.name for l in r] == ["nvl0->2"]


def test_route_no_nvlink_across_nodes():
    _e, fab = _mk()
    r = fab.route(dev(fab, 0), dev(fab, 4))
    assert [l.name for l in r] == ["ib_out0", "ib_in4"]


def test_route_d2h_h2d():
    _e, fab = _mk()
    assert [l.name for l in fab.route(dev(fab, 1), host(fab, 0))] == ["c2c_d2h1"]
    assert [l.name for l in fab.route(host(fab, 0), dev(fab, 1))] == ["c2c_h2d1"]


def test_route_host_to_host_intra():
    _e, fab = _mk()
    names = [l.name for l in fab.route(host(fab, 0), host(fab, 0))]
    assert names == ["hostmem_tx0", "hostmem_rx0"]


def test_route_host_to_host_inter():
    _e, fab = _mk()
    names = [l.name for l in fab.route(host(fab, 0), host(fab, 1))]
    assert names == ["hostmem_tx0", "ib_out0", "ib_in4", "hostmem_rx1"]


def test_route_pinned_skips_hostmem_inter():
    _e, fab = _mk()
    names = [l.name for l in fab.route(host(fab, 0, pinned=True), host(fab, 1, pinned=True))]
    assert names == ["ib_out0", "ib_in4"]


def test_transfer_moves_payload():
    eng, fab = _mk()
    src = dev(fab, 0)
    src.data[:] = 4.5
    dst = dev(fab, 1)
    done = fab.dataplane.put(src, dst)
    eng.run(done)
    assert np.all(dst.data == 4.5)


def test_transfer_visibility_at_arrival():
    """Data is not visible before the wire completes."""
    eng, fab = _mk()
    src, dst = dev(fab, 0, 1 << 20), dev(fab, 1, 1 << 20)
    src.data[:] = 1.0
    fab.dataplane.put(src, dst)
    eng.run(until=1 * us)  # well before the 8 MiB NVLink transfer ends
    assert dst.data[0] == 0.0
    eng.run()
    assert dst.data[0] == 1.0


def test_transfer_size_mismatch():
    _e, fab = _mk()
    with pytest.raises(ValueError):
        fab.dataplane.put(dev(fab, 0, 4), dev(fab, 1, 8))


def test_gpu_distance():
    _e, fab = _mk()
    assert fab.gpu_distance(0, 0) == "local"
    assert fab.gpu_distance(0, 3) == "nvlink"
    assert fab.gpu_distance(0, 7) == "ib"


def test_large_transfer_bandwidth_bound():
    """An 8 MiB NVLink transfer takes ~ size/bw + latency."""
    eng, fab = _mk()
    n = 1 << 20  # 8 MiB of float64
    done = fab.dataplane.put(dev(fab, 0, n), dev(fab, 1, n))
    eng.run(done)
    expected = (n * 8) / (150 * GBps) + fab.config.params.nvlink_latency
    assert eng.now == pytest.approx(expected, rel=1e-6)


def test_rma_put_pays_copy_engine_overhead():
    eng, fab = _mk()
    d = fab.dataplane.rma_put(dev(fab, 0), dev(fab, 1))
    eng.run(d)
    with_engine = eng.now
    eng2, fab2 = _mk()
    d2 = fab2.dataplane.put(dev(fab2, 0), dev(fab2, 1))
    eng2.run(d2)
    assert with_engine == pytest.approx(
        eng2.now + fab.config.params.cuda_ipc_put_overhead, rel=1e-6
    )


def test_rma_put_direct_for_host_buffers():
    eng, fab = _mk()
    d = fab.dataplane.rma_put(host(fab, 0), host(fab, 0))
    eng.run(d)
    no_penalty = eng.now
    assert no_penalty < fab.config.params.cuda_ipc_put_overhead


_spaces = st.sampled_from([MemSpace.HOST, MemSpace.PINNED, MemSpace.DEVICE])


@given(
    s_space=_spaces, d_space=_spaces,
    s_gpu=st.integers(min_value=0, max_value=7),
    d_gpu=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=200, deadline=None)
def test_property_every_location_pair_routes_and_delivers(s_space, d_space, s_gpu, d_gpu):
    """Any (space, gpu) pair resolves to a route and delivers payload."""
    eng, fab = _mk()
    t = fab.topo

    def make(space, gpu):
        node = t.node_of(gpu)
        g = gpu if space is MemSpace.DEVICE else None
        return Buffer.alloc(4, space=space, node=node, gpu=g)

    src, dst = make(s_space, s_gpu), make(d_space, d_gpu)
    src.data[:] = 7.0
    route = fab.route(src, dst)
    assert len(route) >= 1
    eng.run(fab.dataplane.put(src, dst))
    assert np.all(dst.data == 7.0)
