"""Captured transfer graphs: plan cache, graph engine, A/B gating."""

import numpy as np
import pytest

from repro.dataplane.graph import GRAPHS, GraphEngine, GraphError
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.topology import Fabric
from repro.sim.engine import STATS, Engine, collapsible
from repro.units import us

from ..conftest import exact_path


def _mk(engine_cls=Engine, config=ONE_NODE):
    engine = engine_cls()
    return engine, Fabric(engine, config)


def dev(fab, gpu, n=8, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=fab.spec.node_of(gpu), gpu=gpu, fill=fill
    )


def _run(engine, gen):
    done = engine.process(gen, name="t")
    engine.run()
    assert done.ok, done.value
    return done.value


# -- gating -------------------------------------------------------------------

def test_collapsible_by_default():
    assert collapsible()
    assert collapsible(Engine())


def test_ambient_obs_bus_disables():
    engine = Engine()
    with exact_path():
        assert not collapsible()
        assert not collapsible(engine)
    assert collapsible() and collapsible(engine)
    engine.steps = []
    assert not collapsible(engine)


# -- GraphEngine --------------------------------------------------------------

def test_graph_engine_pops_count_as_graphed():
    STATS.reset()
    engine = GraphEngine()

    def body():
        for _ in range(5):
            yield engine.timeout(1 * us)

    engine.process(body())
    engine.run()
    snap = STATS.snapshot()
    assert snap["events_popped"] == 0
    assert snap["events_graphed"] == engine.events_popped > 0


def test_graph_engine_schedules_identically():
    """Same program on Engine and GraphEngine: same pops, same clock."""
    def program(engine):
        def body():
            for i in range(4):
                yield engine.timeout((i + 1) * us)
            return engine.now

        done = engine.process(body())
        engine.run()
        return done.value, engine.events_popped

    assert program(Engine()) == program(GraphEngine())


# -- PlanCache ----------------------------------------------------------------

def test_plan_cache_replays_identical_submissions():
    eager_e, eager_fab = _mk()
    graph_e, graph_fab = _mk()
    graph_fab.dataplane.enable_plan_cache()

    def body(engine, fab, src, dst):
        times = []
        for i in range(4):
            t0 = engine.now
            yield fab.dataplane.put(src, dst, traffic_class="g", name=f"x{i}")
            times.append(engine.now - t0)
        return times

    ea, eb = dev(eager_fab, 0, fill=3.0), dev(eager_fab, 1)
    ga, gb = dev(graph_fab, 0, fill=3.0), dev(graph_fab, 1)
    eager_times = _run(eager_e, body(eager_e, eager_fab, ea, eb))
    graph_times = _run(graph_e, body(graph_e, graph_fab, ga, gb))

    assert graph_times == eager_times                      # bit-identical
    assert np.all(gb.data == 3.0)                          # payload landed
    cache = graph_fab.dataplane.plan_cache
    assert cache.misses == 1 and cache.hits == 3
    assert graph_fab.route_computations == eager_fab.route_computations
    assert (graph_fab.dataplane.ledger.as_dict()
            == eager_fab.dataplane.ledger.as_dict())       # per-sub accounting


def test_plan_cache_payload_reread_each_replay():
    """Replayed stripes copy the buffer's *current* contents."""
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="g")
        src.data[:] = 9.0
        yield fab.dataplane.put(src, dst, traffic_class="g")

    _run(engine, body())
    assert np.all(dst.data == 9.0)


def test_plan_cache_distinguishes_shapes():
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    a, b = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.control(a, b, 1024, traffic_class="g")
        yield fab.dataplane.control(a, b, 2048, traffic_class="g")   # new bytes
        yield fab.dataplane.control(a, b, 1024, traffic_class="h")   # new class

    _run(engine, body())
    cache = fab.dataplane.plan_cache
    assert cache.misses == 3 and cache.hits == 0


def test_plan_cache_never_replays_a_dead_buffers_route():
    """A fresh buffer that reuses a dead one's ``id()`` is a new endpoint:
    control plans hold no payload, so only the cache entry can tell."""
    engine, fab = _mk()
    dp = fab.dataplane.enable_plan_cache()
    routes = []
    account = dp.ledger.account

    def recording(desc, plan):  # a 64 B control is unstriped: its plan is its route
        routes.append((desc.dst.gpu, [link.name for link in plan]))
        account(desc, plan)

    dp.ledger.account = recording
    for i in range(400):
        dp.control(
            Buffer.alloc_virtual(8, space=MemSpace.DEVICE, node=0, gpu=0),
            Buffer.alloc_virtual(8, space=MemSpace.DEVICE, node=0, gpu=1 + i % 3),
            nbytes=64,
        )
    engine.run()
    assert (dp.plan_cache.hits, dp.plan_cache.misses) == (0, 400)
    assert all(route == [f"nvl0->{gpu}"] for gpu, route in routes)


def test_freed_buffer_raises_on_replay():
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="g")
        dst.free()
        with pytest.raises(GraphError, match="freed buffer"):
            fab.dataplane.put(src, dst, traffic_class="g")
        return True

    assert _run(engine, body())


def test_counters_track_capture_and_replay():
    GRAPHS.reset()
    engine, fab = _mk()
    fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        for _ in range(3):
            yield fab.dataplane.put(src, dst, traffic_class="g")

    _run(engine, body())
    snap = GRAPHS.snapshot()
    assert snap["captured_plans"] == 1
    assert snap["replayed_descriptors"] == 2
