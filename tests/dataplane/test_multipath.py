"""MultiPathPolicy: disjointness, reassembly, determinism, goodput gain."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.multipath import measure_stripe_goodput
from repro.dataplane import MultiPathPolicy
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.spec import gh200_spec
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.units import MiB
from repro.workload.registry import get

from ..conftest import exact_path


def _mk(config=ONE_NODE):
    engine = Engine()
    return engine, Fabric(engine, config)


def dev(fab, gpu, n=8, fill=None, virtual=False):
    node = fab.spec.node_of(gpu)
    if virtual:
        return Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=node, gpu=gpu)
    return Buffer.alloc(n, space=MemSpace.DEVICE, node=node, gpu=gpu, fill=fill)


# -- link-disjointness property ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(1, 2),
    gpus_per_node=st.integers(1, 4),
    src=st.integers(0, 7),
    dst=st.integers(0, 7),
    max_paths=st.integers(2, 4),
)
def test_disjoint_routes_share_no_links(n_nodes, gpus_per_node, src, dst, max_paths):
    """Wherever the LinkGraph offers alternatives, the peeled routes are
    pairwise link-disjoint, led by the primary (fewest-links) route."""
    n_gpus = n_nodes * gpus_per_node
    src, dst = src % n_gpus, dst % n_gpus
    _e, fab = _mk(gh200_spec(n_nodes, gpus_per_node))
    a, b = dev(fab, src, virtual=True), dev(fab, dst, virtual=True)
    routes = fab.disjoint_routes(a, b, max_paths)
    assert 1 <= len(routes) <= max_paths
    assert routes[0] == fab.route(a, b)
    if src != dst:
        seen = set()
        for route in routes:
            for link in route:
                assert link not in seen, f"link {link.name} on two routes"
                seen.add(link)


def test_mesh_pair_has_four_disjoint_routes():
    """GH200 4-GPU mesh: direct NVLink, two NVLink detours, C2C host path."""
    _e, fab = _mk()
    a, b = dev(fab, 0, virtual=True), dev(fab, 1, virtual=True)
    routes = fab.disjoint_routes(a, b, 4)
    assert len(routes) == 4
    assert [l.name for l in routes[0]] == ["nvl0->1"]
    assert all(len(r) >= 2 for r in routes[1:])


def test_dual_rail_inter_node_routes():
    """2 GPUs/node with per-GPU NICs: a second, fully disjoint rail exists
    through the peer GPU's NIC (Sojoodi-style multi-rail)."""
    _e, fab = _mk(gh200_spec(2, 2))
    a, b = dev(fab, 0, virtual=True), dev(fab, 2, virtual=True)
    routes = fab.disjoint_routes(a, b, 4)
    assert len(routes) >= 2
    rails = {tuple(l.name for l in r if l.name.startswith("ib_")) for r in routes}
    assert len(rails) == len(routes), "each route must use its own NIC rail"


def test_multi_route_cache_hits():
    _e, fab = _mk()
    a, b = dev(fab, 0, virtual=True), dev(fab, 1, virtual=True)
    first = fab.disjoint_routes(a, b, 4)
    searches = fab.route_computations
    assert fab.disjoint_routes(a, b, 4) is first
    assert fab.route_computations == searches


def test_multi_route_cache_drops_downed_links():
    """Disjoint routes live in the fabric's one route cache, under its one
    epoch check: a down_link retires a cached result like a cached route."""
    _e, fab = _mk()
    a, b = dev(fab, 0, virtual=True), dev(fab, 1, virtual=True)
    first = fab.disjoint_routes(a, b, 4)
    dead = first[1][0]
    searches = fab.route_computations
    fab.link_state.down_link(dead.name)
    again = fab.disjoint_routes(a, b, 4)
    assert again is not first
    assert all(dead not in route for route in again)
    assert fab.route_computations == searches + 1
    assert fab.disjoint_routes(a, b, 4) is again


# -- striped payload reassembly ----------------------------------------------

def test_striped_payload_reassembles_exactly():
    """Real (non-virtual) buffers: every element lands exactly once even
    though the stripes arrive at different instants."""
    engine, fab = _mk()
    fab.dataplane.policy = MultiPathPolicy()
    n = MiB  # 8 MiB of f64 -> stripes engage
    src = dev(fab, 0, n=n)
    src.data[:] = np.arange(n, dtype=np.float64)
    dst = dev(fab, 1, n=n)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="bench", name="stripe")

    done = engine.process(body(), name="t")
    engine.run()
    assert done.ok, done.value
    assert np.array_equal(dst.data, src.data)
    assert fab.dataplane.ledger["bench"].stripes >= 2


def test_small_transfers_do_not_stripe():
    engine, fab = _mk()
    fab.dataplane.policy = MultiPathPolicy()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="bench")

    engine.process(body(), name="t")
    engine.run()
    assert fab.dataplane.ledger["bench"].stripes == 1
    assert np.all(dst.data == 1.0)


# -- determinism --------------------------------------------------------------

def _multi_step_stream():
    engine = Engine()
    engine.steps = steps = []
    fab = Fabric(engine, ONE_NODE)
    fab.dataplane.policy = MultiPathPolicy()
    src = dev(fab, 0, n=2 * MiB, virtual=True)
    dst = dev(fab, 1, n=2 * MiB, virtual=True)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="bench", name="stripe")

    engine.process(body(), name="t")
    engine.run()
    return steps


def test_multipath_is_bit_equal_across_runs():
    first, second = _multi_step_stream(), _multi_step_stream()
    assert first == second
    assert len(first) > 10


def test_multipath_times_survive_no_coalesce():
    base = measure_stripe_goodput(64 * MiB, "multi")
    with exact_path():
        nocoal = measure_stripe_goodput(64 * MiB, "multi")
    assert base["elapsed_s"] == nocoal["elapsed_s"]
    assert base["stripes"] == nocoal["stripes"]


def test_multipath_sweep_digest_stable(monkeypatch):
    """The whole sweep's simulated numbers are a pure function of the
    code: two runs hash identically (no RNG, no wall-clock leakage)."""
    def digest():
        series = get("striping").run(sizes=(2 * MiB, 16 * MiB)).series
        blob = repr([sorted(r.items()) for r in series.rows]).encode()
        return hashlib.sha256(blob).hexdigest()

    assert digest() == digest()


# -- the acceptance point ------------------------------------------------------

def test_striping_goodput_gain_on_largest_intranode_point():
    """>= 1.5x goodput on the largest intra-node D2D point with >= 2
    link-disjoint NVLink routes (the PR's acceptance criterion)."""
    single = measure_stripe_goodput(512 * MiB, "single")
    multi = measure_stripe_goodput(512 * MiB, "multi")
    assert multi["stripes"] >= 2
    assert multi["goodput_Bps"] >= 1.5 * single["goodput_Bps"]


def test_a_one_stripe_plan_is_refused():
    from repro.dataplane.policy import PathPolicy, Stripe

    class OneStripe(PathPolicy):
        def plan(self, dp, desc, primary):
            return [Stripe(primary, desc.wire_bytes, None)]

    engine, fab = _mk()
    fab.dataplane.policy = OneStripe()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)
    with pytest.raises(TypeError, match="one-stripe plan"):
        fab.dataplane.control(src, dst, nbytes=64)
