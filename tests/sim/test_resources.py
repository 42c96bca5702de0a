"""Flags, counters, channels, resources — incl. property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Channel, Counter, Flag, Resource


# --------------------------------------------------------------------------
# Flag
# --------------------------------------------------------------------------

def test_flag_wait_after_set(engine):
    f = Flag(engine)
    f.set()

    def proc():
        yield f.wait()
        return engine.now

    assert engine.run(engine.process(proc())) == 0.0


def test_flag_wakes_all_waiters(engine):
    f = Flag(engine)
    woken = []

    def waiter(k):
        yield f.wait()
        woken.append(k)

    for k in range(5):
        engine.process(waiter(k))

    def setter():
        yield engine.timeout(1)
        f.set()

    engine.process(setter())
    engine.run()
    assert sorted(woken) == list(range(5))


def test_flag_idempotent_set(engine):
    f = Flag(engine)
    ev = f.wait()
    f.set()
    f.set()  # already set: wakes nothing, raises nothing
    engine.run()
    assert f.is_set and ev.processed and ev.value is True


def test_flag_clear_rearms(engine):
    f = Flag(engine)
    f.set()
    assert f.is_set
    f.clear()
    assert not f.is_set
    ev = f.wait()
    assert not ev.triggered
    f.set()
    assert f.is_set and ev.triggered


# --------------------------------------------------------------------------
# Counter
# --------------------------------------------------------------------------

def test_counter_wait_for_threshold(engine):
    c = Counter(engine)
    times = []

    def waiter():
        yield c.wait_for(3)
        times.append(engine.now)

    engine.process(waiter())

    def adder():
        for _ in range(3):
            yield engine.timeout(1)
            c.add(1)

    engine.process(adder())
    engine.run()
    assert times == [3.0]
    assert c.value == 3


def test_counter_wait_already_satisfied(engine):
    c = Counter(engine, initial=5)

    def proc():
        v = yield c.wait_for(3)
        return v

    assert engine.run(engine.process(proc())) == 5


def test_counter_negative_add_rejected(engine):
    with pytest.raises(ValueError):
        Counter(engine).add(-1)


def test_counter_reset_for_new_epoch(engine):
    c = Counter(engine)
    c.add(4)
    c.reset()
    assert c.value == 0


def test_counter_multiple_thresholds(engine):
    c = Counter(engine)
    hits = []

    def waiter(threshold):
        yield c.wait_for(threshold)
        hits.append((threshold, engine.now))

    for t in (2, 4, 1):
        engine.process(waiter(t))

    def adder():
        for _ in range(4):
            yield engine.timeout(1)
            c.add(1)

    engine.process(adder())
    engine.run()
    assert sorted(hits) == [(1, 1.0), (2, 2.0), (4, 4.0)]


# --------------------------------------------------------------------------
# Channel
# --------------------------------------------------------------------------

def test_channel_fifo(engine):
    ch = Channel(engine)
    got = []

    def consumer():
        for _ in range(3):
            item = yield ch.get()
            got.append(item)

    engine.process(consumer())
    for v in ("a", "b", "c"):
        ch.put(v)
    engine.run()
    assert got == ["a", "b", "c"]


def test_channel_get_blocks_until_put(engine):
    ch = Channel(engine)

    def consumer():
        item = yield ch.get()
        return (item, engine.now)

    p = engine.process(consumer())

    def producer():
        yield engine.timeout(2)
        ch.put("late")

    engine.process(producer())
    assert engine.run(p) == ("late", 2.0)


def test_channel_getters_fifo(engine):
    ch = Channel(engine)
    order = []

    def consumer(k):
        item = yield ch.get()
        order.append((k, item))

    for k in range(3):
        engine.process(consumer(k))

    def producer():
        yield engine.timeout(1)
        for v in range(3):
            ch.put(v)

    engine.process(producer())
    engine.run()
    assert order == [(0, 0), (1, 1), (2, 2)]


# --------------------------------------------------------------------------
# Resource
# --------------------------------------------------------------------------

def test_resource_serializes(engine):
    res = Resource(engine, capacity=1)
    spans = []

    def user(k):
        yield res.acquire()
        start = engine.now
        yield engine.timeout(1)
        res.release()
        spans.append((k, start, engine.now))

    for k in range(3):
        engine.process(user(k))
    engine.run()
    assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]


def test_resource_capacity(engine):
    res = Resource(engine, capacity=2)
    ends = []

    def user():
        yield res.acquire()
        yield engine.timeout(1)
        res.release()
        ends.append(engine.now)

    for _ in range(4):
        engine.process(user())
    engine.run()
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_without_acquire(engine):
    with pytest.raises(RuntimeError):
        Resource(engine).release()


def test_resource_invalid_capacity(engine):
    with pytest.raises(ValueError):
        Resource(engine, capacity=0)


# --------------------------------------------------------------------------
# property-based
# --------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_property_timeouts_complete_in_sorted_order(delays):
    """Any bag of timeouts completes in non-decreasing time order."""
    eng = Engine()
    completions = []

    def proc(d):
        yield eng.timeout(d)
        completions.append(eng.now)

    for d in delays:
        eng.process(proc(d))
    eng.run()
    assert completions == sorted(completions)
    assert len(completions) == len(delays)


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_property_counter_thresholds_fire_exactly_once(amounts):
    """Every waiter below the final total fires exactly once."""
    eng = Engine()
    c = Counter(eng)
    total = sum(amounts)
    fired = []

    def waiter(threshold):
        yield c.wait_for(threshold)
        fired.append(threshold)

    thresholds = list(range(1, total + 1, max(1, total // 10)))
    for t in thresholds:
        eng.process(waiter(t))

    def adder():
        for a in amounts:
            yield eng.timeout(1)
            c.add(a)

    eng.process(adder())
    eng.run()
    assert sorted(fired) == thresholds


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_property_channel_preserves_order_and_content(items):
    eng = Engine()
    ch = Channel(eng)
    got = []

    def consumer():
        for _ in items:
            got.append((yield ch.get()))

    eng.process(consumer())
    for it in items:
        ch.put(it)
    eng.run()
    assert got == items
