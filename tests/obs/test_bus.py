"""Bus semantics: the fast-path contract, dispatch order, the run bus."""

import pytest

from repro.obs.bus import COUNTER, INSTANT, SPAN, Bus, ObsEvent
from repro.sim.engine import Engine
from repro.sim.run import run_scope


class Sink:
    def __init__(self):
        self.events = []
        self.attached = []

    def on_event(self, ev):
        self.events.append(ev)

    def on_attach(self, engine):
        self.attached.append(engine)


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
    assert sink.attached == [eng]


def test_attach_after_subscribe_sets_obs_and_notifies():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    eng = Engine()
    bus.attach(eng)
    assert eng.obs is bus
    assert sink.attached == [eng]


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


def test_payload_is_sorted_and_queryable():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    bus.span("kernel", "k", ("gpu", 0), 0.0, 1.0, zeta=1, alpha=2)
    ev = sink.events[0]
    assert ev.payload == (("alpha", 2), ("zeta", 1))
    assert ev.get("zeta") == 1
    assert ev.get("missing", "d") == "d"


def test_instant_defaults_to_engine_clock():
    bus, eng, sink = Bus(), Engine(), Sink()
    bus.subscribe(sink)
    bus.attach(eng)
    eng.run(until=3.0)
    bus.instant("engine", "trace", msg="hi")
    ev = sink.events[0]
    assert ev.t0 == ev.t1 == 3.0
    assert ev.dur == 0.0


def test_dispatch_reaches_all_subscribers_in_order():
    bus, a, b = Bus(), Sink(), Sink()
    bus.subscribe(a)
    bus.subscribe(b)
    bus.instant("x", "y", t=0.0)
    assert len(a.events) == len(b.events) == 1
    assert a.events[0] is b.events[0]


def test_compact_degrades_objects_but_shares_scalars():
    class Buf:
        label = "gpu0.buf3"

    raw = ObsEvent(INSTANT, "san", "access", ("gpu", 0), 1.0, 1.0, 5,
                   (("buf", Buf()), ("write", True)))
    compact = raw.compact()
    assert compact.get("buf") == "<gpu0.buf3>"
    assert compact.get("write") is True
    scalar = ObsEvent(SPAN, "link", "l", None, 0.0, 1.0, 6, (("nbytes", 8),))
    assert scalar.compact() is scalar


# -- run bus -------------------------------------------------------------------

def test_run_bus_makes_new_engines_attach():
    bus, sink = Bus(), Sink()
    bus.subscribe(sink)
    with run_scope(bus=bus):
        eng = Engine()
    assert eng.obs is bus and sink.attached == [eng]
    assert Engine().obs is None


def test_second_run_bus_rejected():
    bus = Bus()
    with run_scope(bus=bus):
        with run_scope(bus=bus) as run:  # the same bus: inherited, not nested
            assert run.bus is bus
        with pytest.raises(RuntimeError, match="already has an obs bus"):
            with run_scope(bus=Bus()):
                pass  # pragma: no cover
