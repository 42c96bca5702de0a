"""Dataplane submission surface: shims, staging, ledger, policy selection."""

import numpy as np
import pytest

from repro.dataplane import Dataplane, MultiPathPolicy, SinglePathPolicy, policy_by_name
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE, TestbedConfig
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.sim.run import run_scope


def _mk(config=ONE_NODE):
    engine = Engine()
    return engine, Fabric(engine, config)


def dev(fab, gpu, n=8, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=fab.topo.node_of(gpu), gpu=gpu, fill=fill
    )


def _run(engine, gen):
    done = engine.process(gen, name="t")
    engine.run()
    assert done.ok, done.value
    return done.value


def test_fabric_owns_a_dataplane():
    _e, fab = _mk()
    assert isinstance(fab.dataplane, Dataplane)
    assert isinstance(fab.dataplane.policy, SinglePathPolicy)


def test_put_delivers_payload_and_accounts():
    engine, fab = _mk()
    src, dst = dev(fab, 0, fill=3.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(src, dst, traffic_class="pcoll", name="x")

    _run(engine, body())
    assert np.all(dst.data == 3.0)
    usage = fab.dataplane.ledger["pcoll"]
    assert usage.bytes == src.nbytes
    assert usage.transfers == 1 and usage.stripes == 1
    assert usage.occupancy_s > 0
    assert fab.dataplane.submissions == 1


def test_control_charges_time_but_moves_no_payload():
    engine, fab = _mk()
    src, dst = dev(fab, 0, fill=7.0), dev(fab, 1)

    def body():
        t0 = engine.now
        yield fab.dataplane.control(src, dst, 4096, traffic_class="am")
        return engine.now - t0

    elapsed = _run(engine, body())
    assert elapsed > 0
    assert np.all(dst.data == 0.0)  # no payload landed
    assert fab.dataplane.ledger["am"].bytes == 4096


def test_rma_put_stages_through_copy_engine():
    """Host-mediated D2D between IPC peers pays the cuda_ipc setup on top
    of the wire time; a plain put does not."""
    engine, fab = _mk()

    def timed(fn):
        e, f = _mk()
        s, d = dev(f, 0, fill=1.0), dev(f, 1)

        def body():
            t0 = e.now
            yield fn(f, s, d)
            return e.now - t0

        return _run(e, body())

    plain = timed(lambda f, s, d: f.dataplane.put(s, d))
    staged = timed(lambda f, s, d: f.dataplane.rma_put(s, d))
    overhead = ONE_NODE.params.cuda_ipc_put_overhead
    assert staged == pytest.approx(plain + overhead)


def test_rma_put_no_peer_mapping_goes_direct():
    """Inter-node D2D cannot IPC-map; rma_put must not touch a copy engine."""
    engine, fab = _mk(TestbedConfig(n_nodes=2, gpus_per_node=1))
    src, dst = dev(fab, 0, fill=2.0), dev(fab, 1)

    def body():
        yield fab.dataplane.rma_put(src, dst, traffic_class="rndv")

    _run(engine, body())
    assert np.all(dst.data == 2.0)
    assert fab.dataplane.ledger["rndv"].transfers == 1


def test_ledger_totals_across_classes():
    engine, fab = _mk()
    a, b = dev(fab, 0, fill=1.0), dev(fab, 1)

    def body():
        yield fab.dataplane.put(a, b, traffic_class="coll")
        yield fab.dataplane.control(a, b, 128, traffic_class="am")

    _run(engine, body())
    ledger = fab.dataplane.ledger
    assert ledger.total_bytes() == a.nbytes + 128
    snap = ledger.as_dict()
    assert set(snap) == {"coll", "am"}
    assert snap["coll"]["transfers"] == 1


def test_policy_from_env_values():
    """policy_by_name (formerly policy_from_env) maps names to policies."""
    assert isinstance(policy_by_name(None), SinglePathPolicy)
    assert isinstance(policy_by_name(""), SinglePathPolicy)
    assert isinstance(policy_by_name("single"), SinglePathPolicy)
    assert isinstance(policy_by_name("multi"), MultiPathPolicy)
    with pytest.raises(ValueError, match="unknown path policy 'fastest'"):
        policy_by_name("fastest")


def test_settings_scope_selects_policy():
    with run_scope(policy="multi"):
        _e, fab = _mk()
    assert isinstance(fab.dataplane.policy, MultiPathPolicy)
    _e, fab = _mk()
    assert isinstance(fab.dataplane.policy, SinglePathPolicy)


def test_multipath_policy_guards():
    with pytest.raises(ValueError):
        MultiPathPolicy(min_stripe_bytes=0)
    with pytest.raises(ValueError):
        MultiPathPolicy(max_stripes=1)
