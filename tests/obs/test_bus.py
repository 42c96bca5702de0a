"""Bus semantics: the fast-path contract, dispatch order, the run bus."""

import pytest

from repro.obs.bus import COUNTER, INSTANT, SPAN, Bus, labelled
from repro.sim.engine import Engine
from repro.sim.run import run_scope


class Sink:
    def __init__(self):
        self.events = []

    def on_event(self, ev):
        self.events.append(ev)


# -- fast-path contract ------------------------------------------------------

def test_attach_without_subscribers_keeps_obs_none():
    bus, eng = Bus(), Engine()
    bus.attach(eng)
    assert eng.obs is None


def test_subscribe_backfills_attached_engines():
    bus, eng = Bus(), Engine()
    bus.attach(eng)
    sink = Sink()
    bus.subscribe(sink)
    assert eng.obs is bus


def test_attach_after_subscribe_sets_obs():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    eng = Engine()
    bus.attach(eng)
    assert eng.obs is bus
    assert bus.engines == (eng,)


def test_last_unsubscribe_restores_fast_path():
    bus, eng, sink = Bus(), Engine(), Sink()
    bus.subscribe(sink)
    bus.attach(eng)
    bus.unsubscribe(sink)
    assert eng.obs is None
    assert bus.subscribers == []


def test_double_subscribe_rejected():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    with pytest.raises(ValueError):
        bus.subscribe(sink)


def test_attach_is_idempotent():
    bus, eng = Bus(), Engine()
    bus.attach(eng)
    bus.attach(eng)
    assert bus.engines == (eng,)


# -- events ------------------------------------------------------------------

def test_span_instant_counter_kinds_and_seq_order():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    bus.span("link", "nvl0->1", None, 1.0, 2.0, nbytes=64)
    bus.instant("mpi", "am-rts", ("pe", 0), t=2.0, tag=7)
    bus.counter("stream", "s0", t=2.5, depth=3)
    kinds = [(ev.kind, ev.name, ev.seq) for ev in sink.events]
    assert kinds == [(SPAN, "nvl0->1", 1), (INSTANT, "am-rts", 2), (COUNTER, "s0", 3)]


def test_payload_is_the_site_kwargs_and_queryable():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    buf = object()
    bus.span("kernel", "k", ("gpu", 0), 0.0, 1.0, zeta=1, alpha=2, buf=buf)
    ev = sink.events[0]
    # Published as passed: unsorted, unlabelled (export sorts, keepers label).
    assert list(ev.payload) == ["zeta", "alpha", "buf"]
    assert ev.get("buf") is buf
    assert ev.get("missing", "d") == "d"
    assert ev.cat == "kernel" and ev.actor == ("gpu", 0) and ev.t1 == 1.0


def test_instant_defaults_to_engine_clock():
    bus, eng, sink = Bus(), Engine(), Sink()
    bus.subscribe(sink)
    bus.attach(eng)
    eng.run(until=3.0)
    bus.instant("engine", "trace", msg="hi")
    ev = sink.events[0]
    assert ev.t0 == ev.t1 == 3.0


def test_instant_takes_the_running_engines_clock():
    """Two engines on one bus: an instant emitted inside ``a.run`` carries
    ``a``'s clock, not that of ``b``, the engine attached last."""
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    a, b = Engine(), Engine()
    bus.attach(a)
    bus.attach(b)
    b.run(until=5.0)

    def proc():
        yield a.timeout(1.0)
        bus.instant("x", "mine")
        bus.counter("x", "depth", n=1)

    a.process(proc())
    a.run()
    mine = [(ev.name, ev.t0) for ev in sink.events if ev.cat == "x"]
    assert mine == [("mine", 1.0), ("depth", 1.0)]
    # Between runs the clock is the engine attached last again.
    bus.instant("x", "between")
    assert sink.events[-1][:5] == (INSTANT, "x", "between", None, 5.0)


def test_nested_run_restores_the_outer_clock():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    outer, inner = Engine(), Engine()
    bus.attach(outer)
    bus.attach(inner)
    inner.run(until=7.0)

    def proc():
        yield outer.timeout(2.0)
        inner.run(until=9.0)
        bus.instant("x", "after-inner")

    outer.process(proc())
    outer.run()
    mine = [(ev.name, ev.t0) for ev in sink.events if ev.cat == "x"]
    assert mine == [("after-inner", 2.0)]


def test_dispatch_reaches_all_subscribers_in_order():
    bus, a, b = Bus(), Sink(), Sink()
    bus.subscribe(a)
    bus.subscribe(b)
    bus.instant("x", "y", t=0.0)
    assert len(a.events) == len(b.events) == 1
    assert a.events[0] is b.events[0]


def test_labelled_degrades_objects_but_passes_scalars():
    class Buf:
        label = "gpu0.buf3"

    class Flag(int):
        pass

    scalars = {"n": None, "b": True, "i": 8, "f": 1.5, "s": "s",
               "obj": ("enq", 0, None), "sub": Flag(3)}
    assert labelled(scalars) is scalars  # nothing to label: no copy
    raw = {"buf": Buf(), "write": True, "info": (("check", "x"),), "o": object()}
    kept = labelled(raw)
    assert kept == {"buf": "<gpu0.buf3>", "write": True, "info": "<tuple>", "o": "<object>"}
    assert isinstance(raw["buf"], Buf)  # the published payload is untouched


# -- run bus -------------------------------------------------------------------

def test_run_bus_makes_new_engines_attach():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    with run_scope(bus=bus):
        eng = Engine()
    assert eng.obs is bus and bus.engines == (eng,)
    assert Engine().obs is None


def test_second_run_bus_rejected():
    bus = Bus()
    with run_scope(bus=bus):
        with run_scope(bus=bus) as run:  # the same bus: inherited, not nested
            assert run.bus is bus
        with pytest.raises(RuntimeError, match="already has an obs bus"):
            with run_scope(bus=Bus()):
                pass  # pragma: no cover


def test_cluster_instants_take_their_shards_clock():
    """Each shard's instants carry that shard's clock: the time of the pop
    that emitted them.  Stamped with the engine attached last, half of them
    carried the other shard's clock."""
    from repro.hw.spec import SPECS
    from repro.shard.cluster import ClusterJob

    class PopClock:
        def __init__(self):
            self.pop_t, self.stamps = None, []

        def on_event(self, ev):
            if ev.cat == "engine":
                self.pop_t = ev.t0
            elif ev.kind == INSTANT and self.pop_t is not None:
                self.stamps.append((ev.cat, ev.t0, self.pop_t))

    bus, tap = Bus(), PopClock()
    bus.subscribe(tap)
    with run_scope(bus=bus):
        ClusterJob(SPECS["gh200-2x4"], "allreduce-node", cfg={"iters": 1}).run_sequential()
    cats = {cat for cat, _t, _pop in tap.stamps}
    assert {"san", "dataplane"} <= cats
    assert [s for s in tap.stamps if s[1] != s[2]] == []
