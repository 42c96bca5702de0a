"""Guarded execution under faults: re-route, FabricFault, congestion, rebind."""

import numpy as np
import pytest

from repro.dataplane import MultiPathPolicy, SinglePathPolicy, policy_by_name
from repro.dataplane.graph import GRAPHS
from repro.dataplane.ledger import Ledger
from repro.dataplane.plane import FabricFault
from repro.dataplane.policy import CongestionAwarePolicy
from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.links import LinkDownError, start_transfer
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.generators import resolve_machine
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.sim.run import run_scope
from repro.units import MiB


def _mk(machine="gh200-1x4", policy=None):
    engine = Engine()
    fab = Fabric(engine, resolve_machine(machine))
    if policy is not None:
        fab.dataplane.policy = policy
    return engine, fab


def dev(fab, gpu, n=8, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=fab.topo.node_of(gpu), gpu=gpu, fill=fill
    )


def _run(engine, gen):
    done = engine.process(gen, name="t")
    engine.run()
    assert done.ok, done.value
    return done.value


def _chunked_run(fault_t=None, chunks=8, chunk_bytes=MiB):
    """Submit ``chunks`` pipelined puts gpu0->gpu1 at t=0 (they queue on
    the nvl0->1 port); optionally down nvl0->1 at ``fault_t`` so queued
    acquisitions abort and re-route.  Returns (t_end, reroutes, faults,
    ok_payload)."""
    sched = None
    if fault_t is not None:
        sched = FaultSchedule([FaultEvent(fault_t, "nvl0->1", "down")])
    with run_scope(faults=sched):
        engine, fab = _mk(policy=SinglePathPolicy())
    dp = fab.dataplane
    pairs = [(dev(fab, 0, n=chunk_bytes, fill=i + 1), dev(fab, 1, n=chunk_bytes))
             for i in range(chunks)]

    def body():
        events = [dp.put(s, d, name=f"c{i}") for i, (s, d) in enumerate(pairs)]
        for ev in events:
            res = yield ev
            assert not isinstance(res, FabricFault), res
        return engine.now

    t_end = _run(engine, body())
    ok = all(np.array_equal(d.data, s.data) for s, d in pairs)
    return t_end, dp.reroutes, dp.faults, ok


# -- re-route around a downed link --------------------------------------------

def test_midrun_link_down_reroutes_and_completes():
    healthy_t, r0, f0, ok0 = _chunked_run(fault_t=None)
    assert ok0 and r0 == 0 and f0 == 0
    faulted_t, reroutes, faults, ok = _chunked_run(fault_t=healthy_t / 2)
    assert ok, "payload must still land after the re-route"
    assert reroutes > 0 and faults == 0
    assert faulted_t > healthy_t  # detour routes are strictly worse


def test_faulted_run_repeats_bit_identically():
    healthy_t, *_ = _chunked_run(fault_t=None)
    a = _chunked_run(fault_t=healthy_t / 2)
    b = _chunked_run(fault_t=healthy_t / 2)
    assert a == b


def test_striped_transfer_bounded_by_healthy_and_single():
    """Acceptance pin: a 4 MiB striped transfer that loses one mesh link
    lands strictly between the healthy multipath and single-path bounds."""
    def timed(machine_policy, down=None):
        engine, fab = _mk(policy=machine_policy)
        if down is not None:
            fab.link_state.down_link(down)
        src = dev(fab, 0, n=4 * MiB, fill=3)
        dst = dev(fab, 1, n=4 * MiB)

        def body():
            res = yield fab.dataplane.put(src, dst)
            assert not isinstance(res, FabricFault), res
            return engine.now

        t = _run(engine, body())
        assert np.array_equal(dst.data, src.data)
        return t

    healthy = timed(MultiPathPolicy())
    faulted = timed(MultiPathPolicy(), down="nvl0->1")
    single = timed(SinglePathPolicy())
    assert healthy < faulted < single


# -- FabricFault: no surviving route ------------------------------------------

def test_no_route_yields_falsy_fabric_fault():
    engine, fab = _mk("gh200-2x1")  # ib is the only inter-node path
    fab.link_state.down_link("ib_out0")
    src = dev(fab, 0, n=4096, fill=1)
    dst = dev(fab, 1, n=4096)

    def body():
        return (yield fab.dataplane.put(src, dst))

    res = _run(engine, body())
    assert isinstance(res, FabricFault)
    assert not res                       # falsy at wait sites
    assert res.link == "ib_out0"
    assert fab.dataplane.faults == 1
    assert not np.array_equal(dst.data, src.data)


def test_fault_does_not_tear_down_sibling_transfers():
    engine, fab = _mk("gh200-2x1")
    fab.link_state.down_link("ib_out0")
    dead_src, dead_dst = dev(fab, 0, n=1024, fill=1), dev(fab, 1, n=1024)
    ok_src, ok_dst = dev(fab, 0, n=1024, fill=2), dev(fab, 0, n=1024)

    def body():
        dead = fab.dataplane.put(dead_src, dead_dst, name="dead")
        ok = fab.dataplane.put(ok_src, ok_dst, name="ok")
        res_dead = yield dead
        res_ok = yield ok
        return res_dead, res_ok

    res_dead, res_ok = _run(engine, body())
    assert isinstance(res_dead, FabricFault)
    assert not isinstance(res_ok, FabricFault)
    assert np.array_equal(ok_dst.data, ok_src.data)


# -- outstanding-bytes balance ------------------------------------------------

def _assert_drained(fab):
    dirty = [l.name for l in fab.link_state._by_name.values()
             if l.outstanding_bytes != 0]
    assert not dirty, f"links left charged: {dirty}"


def test_outstanding_bytes_drain_after_clean_run():
    engine, fab = _mk(policy=MultiPathPolicy())
    src, dst = dev(fab, 0, n=2 * MiB, fill=5), dev(fab, 1, n=2 * MiB)

    def body():
        yield fab.dataplane.put(src, dst)

    _run(engine, body())
    _assert_drained(fab)


def test_outstanding_bytes_drain_after_faulted_run():
    healthy_t, *_ = _chunked_run(fault_t=None)
    sched = FaultSchedule([FaultEvent(healthy_t / 2, "nvl0->1", "down")])
    with run_scope(faults=sched):
        engine, fab = _mk(policy=SinglePathPolicy())
    src, dst = dev(fab, 0, n=MiB, fill=5), dev(fab, 1, n=MiB)

    def body():
        for i in range(8):
            yield fab.dataplane.put(src, dst, name=f"c{i}")

    _run(engine, body())
    _assert_drained(fab)


def test_linkdown_abort_discharges_via_finally():
    """A transfer queued behind a port when its link dies aborts with
    LinkDownError — and its charge is still returned by the finally."""
    engine, fab = _mk()
    link = fab.link_state.find("nvl0->1")
    route = (link,)
    ledger = fab.dataplane.ledger

    def first():
        Ledger.charge_links(route, 1 * MiB)
        yield start_transfer(engine, route, 1 * MiB, ledger=ledger)

    def second():
        Ledger.charge_links(route, 1 * MiB)
        try:
            yield start_transfer(engine, route, 1 * MiB, ledger=ledger)
        except LinkDownError:
            return "aborted"
        return "completed"

    def saboteur():
        yield engine.timeout(1e-9)       # first holds the port by now
        fab.link_state.down_link("nvl0->1")

    engine.process(first(), name="first")
    done = engine.process(second(), name="second")
    engine.process(saboteur(), name="saboteur")
    engine.run()
    assert done.ok and done.value == "aborted"
    assert link.outstanding_bytes == 0


# -- congestion-aware policy --------------------------------------------------

def test_policy_from_env_congestion():
    assert isinstance(policy_by_name("congestion"), CongestionAwarePolicy)


def _concurrent_run(policy, n=8, nbytes=16 * MiB):
    engine, fab = _mk(policy=policy)
    pairs = [(dev(fab, 0, n=nbytes, fill=i + 1), dev(fab, 1, n=nbytes))
             for i in range(n)]

    def body():
        events = [fab.dataplane.put(s, d, name=f"x{i}")
                  for i, (s, d) in enumerate(pairs)]
        for ev in events:
            yield ev
        return engine.now

    t_end = _run(engine, body())
    for s, d in pairs:
        assert np.array_equal(d.data, s.data)
    _assert_drained(fab)
    return t_end


def test_congestion_policy_beats_single_path_on_concurrent_load():
    single = _concurrent_run(SinglePathPolicy())
    congested = _concurrent_run(CongestionAwarePolicy())
    # 8 same-pair transfers serialize on one port under SinglePath; the
    # congestion signal spreads them over the disjoint candidates.
    assert congested < single / 1.5


def test_congestion_policy_is_deterministic():
    assert _concurrent_run(CongestionAwarePolicy()) == \
        _concurrent_run(CongestionAwarePolicy())


def test_congestion_policy_skips_downed_candidates():
    engine, fab = _mk(policy=CongestionAwarePolicy())
    fab.link_state.down_link("nvl0->1")
    src, dst = dev(fab, 0, n=MiB, fill=9), dev(fab, 1, n=MiB)

    def body():
        res = yield fab.dataplane.put(src, dst)
        assert not isinstance(res, FabricFault), res

    _run(engine, body())
    assert np.array_equal(dst.data, src.data)


# -- plan-cache rebind --------------------------------------------------------

class _Tap:
    def __init__(self):
        self.events = []

    def on_event(self, ev):
        self.events.append(ev)


def test_plan_rebind_after_epoch_bump():
    from repro.obs.bus import Bus

    GRAPHS.reset()
    engine, fab = _mk(policy=MultiPathPolicy())
    bus, tap = Bus(), _Tap()
    bus.subscribe(tap)
    engine.obs = bus
    dp = fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, n=4 * MiB, fill=2), dev(fab, 1, n=4 * MiB)

    def put_once():
        res = yield dp.put(src, dst, name="iter")
        assert not isinstance(res, FabricFault), res

    _run(engine, put_once())
    assert GRAPHS.captured_plans == 1 and GRAPHS.replanned == 0

    fab.link_state.down_link("nvl0->1")
    _run(engine, put_once())
    assert GRAPHS.replanned == 1
    assert np.array_equal(dst.data, src.data)

    plan_evs = [(e.name, e.get("legs_moved"), e.get("legs_kept"))
                for e in tap.events if e.cat == "plan"]
    builds = [e for e in plan_evs if e[0] == "build"]
    rebinds = [e for e in plan_evs if e[0] == "rebind"]
    assert len(builds) == 1, "rebind must not re-run the full plan build"
    assert len(rebinds) == 1
    _name, moved, kept = rebinds[0]
    assert moved >= 1 and kept >= 1
    assert moved + kept == 4


def test_plan_rebind_replays_cheaply_at_same_epoch():
    GRAPHS.reset()
    engine, fab = _mk(policy=MultiPathPolicy())
    dp = fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, n=MiB, fill=4), dev(fab, 1, n=MiB)
    fab.link_state.down_link("nvl0->1")

    def body():
        for i in range(3):
            yield dp.put(src, dst, name="iter")

    _run(engine, body())
    # One build at epoch 1, then pure replays: the epoch never moves again.
    assert GRAPHS.captured_plans == 1
    assert GRAPHS.replanned == 0
    assert dp.plan_cache.hits == 2


def test_plan_dropped_when_no_route_survives():
    GRAPHS.reset()
    engine, fab = _mk("gh200-2x1")
    dp = fab.dataplane.enable_plan_cache()
    src, dst = dev(fab, 0, n=4096, fill=6), dev(fab, 1, n=4096)

    def put_once():
        return (yield dp.put(src, dst, name="iter"))

    assert not isinstance(_run(engine, put_once()), FabricFault)
    fab.link_state.down_link("ib_out0")
    res = _run(engine, put_once())
    assert isinstance(res, FabricFault)
    assert GRAPHS.replanned == 0         # dead leg had no route: plan dropped
