"""LinkState mutation API, fault schedules, and epoch-aware routing."""

import pytest

from repro.hw.faults import FaultError, FaultEvent, FaultSchedule
from repro.hw.links import LinkDownError, start_transfer
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.generators import resolve_machine
from repro.hw.topology import Fabric, RouteError
from repro.sim.engine import Engine
from repro.sim.run import current, run_scope


def _mk(machine="gh200-1x4"):
    engine = Engine()
    return engine, Fabric(engine, resolve_machine(machine))


def dev(fab, gpu, n=8, fill=None):
    return Buffer.alloc(
        n, space=MemSpace.DEVICE, node=fab.spec.node_of(gpu), gpu=gpu, fill=fill
    )


# -- LinkState mutation API ---------------------------------------------------

def test_linkstate_down_restore_degrade_bump_epoch():
    _e, fab = _mk()
    state = fab.link_state
    assert state.epoch == 0 and not state.armed
    link = state.down_link("nvl0->1")
    assert not link.up and state.epoch == 1 and state.armed
    state.restore_link("nvl0->1")
    assert link.up and link.bandwidth == link.base_bandwidth
    assert state.epoch == 2
    state.degrade_bandwidth("nvl0->1", 0.25)
    assert link.bandwidth == pytest.approx(0.25 * link.base_bandwidth)
    assert link.up  # degraded, not down
    assert state.epoch == 3


def test_linkstate_restore_clears_degradation():
    _e, fab = _mk()
    state = fab.link_state
    state.degrade_bandwidth("nvl0->1", 0.5)
    state.restore_link("nvl0->1")
    assert state.find("nvl0->1").bandwidth == state.find("nvl0->1").base_bandwidth


def test_linkstate_rejects_unknown_names_and_bad_factors():
    _e, fab = _mk()
    with pytest.raises(KeyError, match="no link named 'nope'"):
        fab.link_state.down_link("nope")
    with pytest.raises(ValueError, match="factor must be in"):
        fab.link_state.degrade_bandwidth("nvl0->1", 0.0)
    with pytest.raises(ValueError, match="factor must be in"):
        fab.link_state.degrade_bandwidth("nvl0->1", 1.5)


class _Tap:
    def __init__(self):
        self.events = []

    def on_event(self, ev):
        self.events.append(ev)


def test_mutation_emits_obs_instants():
    from repro.obs.bus import Bus

    engine, fab = _mk()
    bus = Bus()
    tap = _Tap()
    bus.subscribe(tap)
    engine.obs = bus
    fab.link_state.down_link("nvl0->1")
    fab.link_state.degrade_bandwidth("nvl2->3", 0.5)
    fabric_evs = [e for e in tap.events if e.cat == "fabric"]
    assert [e.name for e in fabric_evs] == ["link_down", "link_degrade"]
    assert fabric_evs[0].get("link") == "nvl0->1"
    assert fabric_evs[0].get("epoch") == 1
    assert fabric_evs[1].get("factor") == 0.5


# -- transfers over mutated links ---------------------------------------------

def test_transfer_over_down_link_raises_linkdownerror():
    engine, fab = _mk()
    fab.link_state.down_link("nvl0->1")
    route = (fab.link_state.find("nvl0->1"),)

    def body():
        try:
            yield start_transfer(engine, route, 4096)
        except LinkDownError as exc:
            return exc.link.name
        return None

    done = engine.process(body(), name="t")
    engine.run()
    assert done.ok and done.value == "nvl0->1"


def test_degraded_link_prices_at_grant_time_bandwidth():
    engine, fab = _mk()
    src, dst = dev(fab, 0), dev(fab, 1)

    def timed():
        t0 = engine.now
        yield fab.dataplane.put(src, dst)
        return engine.now - t0

    healthy = engine.process(timed(), name="h")
    engine.run()

    engine2, fab2 = _mk()
    fab2.link_state.degrade_bandwidth("nvl0->1", 0.5)
    src2, dst2 = dev(fab2, 0), dev(fab2, 1)

    def timed2():
        t0 = engine2.now
        yield fab2.dataplane.put(src2, dst2)
        return engine2.now - t0

    degraded = engine2.process(timed2(), name="d")
    engine2.run()
    assert degraded.value > healthy.value


def test_route_cache_invalidates_on_epoch_bump():
    _e, fab = _mk()
    src, dst = dev(fab, 0), dev(fab, 1)
    before = fab.route(src, dst)
    assert "nvl0->1" in [l.name for l in before]
    fab.link_state.down_link("nvl0->1")
    after = fab.route(src, dst)
    assert "nvl0->1" not in [l.name for l in after]
    assert all(l.up for l in after)


def test_no_route_when_all_paths_severed():
    _e, fab = _mk("gh200-2x1")  # one gpu per node: nic is the only path
    state = fab.link_state
    src, dst = dev(fab, 0), dev(fab, 1)
    fab.route(src, dst)  # resolvable while healthy
    state.down_link("ib_out0")
    with pytest.raises(RouteError):
        fab.route(src, dst)


# -- FaultSchedule parsing ----------------------------------------------------

def test_schedule_parses_and_round_trips():
    text = """
# comment
{"t": 0.001, "link": "nvl0->1", "action": "down"}
{"t": 0.002, "link": "nvl0->1", "action": "restore"}
{"t": 0.003, "link": "nvl2->3", "action": "degrade", "factor": 0.5, "node": 1}
"""
    sched = FaultSchedule.parse_jsonl(text, source="t.jsonl")
    assert len(sched) == 3
    rt = FaultSchedule.parse_jsonl(sched.to_jsonl(), source="rt")
    assert [e.as_dict() for e in rt] == [e.as_dict() for e in sched]


@pytest.mark.parametrize("line,fragment", [
    ('{"t": -1, "link": "a", "action": "down"}', "non-negative"),
    ('{"t": 1, "link": "", "action": "down"}', "non-empty link name"),
    ('{"t": 1, "link": "a", "action": "explode"}', "unknown action"),
    ('{"t": 1, "link": "a", "action": "degrade"}', "factor in"),
    ('{"t": 1, "link": "a", "action": "degrade", "factor": 2}', "factor in"),
    ('{"t": 1, "link": "a", "action": "down", "factor": 0.5}', "only applies"),
    ('{"t": 1, "link": "a", "action": "down", "bogus": 1}', "unknown field"),
    ('[1, 2]', "JSON object"),
    ('not json', "invalid JSON"),
])
def test_schedule_rejects_malformed_lines(line, fragment):
    with pytest.raises(FaultError, match="bad.jsonl:1"):
        try:
            FaultSchedule.parse_jsonl(line, source="bad.jsonl")
        except FaultError as exc:
            assert fragment in str(exc)
            raise


@pytest.mark.parametrize("line,fragment", [
    ('{"t": NaN, "link": "a", "action": "down"}', "t must be a finite"),
    ('{"t": Infinity, "link": "a", "action": "down"}', "t must be a finite"),
    ('{"t": 1e400, "link": "a", "action": "down"}', "t must be a finite"),
    ('{"t": true, "link": "a", "action": "down"}', "t must be a finite"),
    ('{"t": 1, "link": "a", "action": "down", "node": true}', "node must be"),
    ('{"t": 1, "link": "a", "action": "degrade", "factor": true}', "factor in"),
    ('{"t": 1, "link": "a", "action": "degrade", "factor": NaN}', "factor in"),
])
def test_schedule_rejects_non_finite_numbers_and_booleans(line, fragment):
    with pytest.raises(FaultError, match="bad.jsonl:1: ") as info:
        FaultSchedule.parse_jsonl(line, source="bad.jsonl")
    assert fragment in str(info.value)


def test_empty_schedule_rejected():
    with pytest.raises(FaultError, match="empty fault schedule"):
        FaultSchedule.parse_jsonl("# nothing\n", source="e")


def test_for_shard_scopes_by_node():
    sched = FaultSchedule([
        FaultEvent(0.1, "swup0", "down", node=0),
        FaultEvent(0.2, "swup0", "down", node=1),
        FaultEvent(0.3, "hbm0", "degrade", factor=0.5),
    ])
    mine = sched.for_shard(1)
    assert [e.t for e in mine] == [0.2, 0.3]    # node 1 + unscoped
    assert len(sched.for_shard(2)) == 1         # unscoped only


# -- installation through the run scope ----------------------------------------

def test_fabric_installs_ambient_schedule_as_timers():
    sched = FaultSchedule([FaultEvent(1e-3, "nvl0->1", "down")])
    with run_scope(faults=sched):
        engine, fab = _mk()
    assert len(fab.fault_events) == 1
    assert fab.link_state.armed            # armed from t=0, epoch untouched
    assert fab.link_state.epoch == 0
    assert fab.link_state.find("nvl0->1").up
    engine.run()
    assert not fab.link_state.find("nvl0->1").up
    assert fab.link_state.epoch == 1


def test_past_events_apply_immediately_on_rebuild():
    engine = Engine()
    engine.timeout(5e-3)
    engine.run()                           # now = 5 ms
    sched = FaultSchedule([FaultEvent(1e-3, "nvl0->1", "down")])
    with run_scope(faults=sched):
        fab = Fabric(engine, resolve_machine("gh200-1x4"))
    assert not fab.link_state.find("nvl0->1").up
    assert fab.fault_events == []          # nothing pending


def test_unknown_link_fails_at_install_not_midrun():
    sched = FaultSchedule([FaultEvent(1e-3, "nvl9->9", "down")])
    with run_scope(faults=sched):
        with pytest.raises(KeyError, match="nvl9->9"):
            _mk()


def test_ambient_schedule_restores_previous_on_exit():
    a = FaultSchedule([FaultEvent(0.1, "x", "down")])
    b = FaultSchedule([FaultEvent(0.2, "y", "down")])
    assert current().faults is None
    with run_scope(faults=a):
        assert current().faults is a
        with run_scope(faults=b):
            assert current().faults is b
        with run_scope(policy="multi"):
            assert current().faults is a       # None inherits
        assert current().faults is a
        with pytest.raises(RuntimeError):
            with run_scope(faults=b):
                raise RuntimeError("boom")
        assert current().faults is a
    assert current().faults is None


def test_no_schedule_means_unarmed_fabric():
    _e, fab = _mk()
    assert not fab.link_state.armed
    assert fab.fault_events == []
