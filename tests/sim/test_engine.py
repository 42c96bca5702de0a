"""Engine fundamentals: time, ordering, run modes, determinism."""

import pytest

from repro.sim.engine import EmptySchedule, Engine
from repro.sim.events import Event, Timeout
from repro.sim.process import ProcessFailed


def test_time_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_time(engine):
    done = []

    def proc():
        yield engine.timeout(1.5)
        done.append(engine.now)

    engine.run(engine.process(proc()))
    assert done == [1.5]


def test_zero_timeout_runs_same_time(engine):
    def proc():
        yield engine.timeout(0.0)
        return engine.now

    assert engine.run(engine.process(proc())) == 0.0


def test_negative_timeout_rejected(engine):
    with pytest.raises(ValueError):
        engine.timeout(-1.0)


def test_run_until_time(engine):
    ticks = []

    def proc():
        while True:
            yield engine.timeout(1.0)
            ticks.append(engine.now)

    engine.process(proc())
    engine.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert engine.now == 3.5


def test_run_to_past_rejected(engine):
    engine.run(until=5.0)
    with pytest.raises(ValueError):
        engine.run(until=1.0)


def test_run_until_event_returns_value(engine):
    ev = engine.event()

    def setter():
        yield engine.timeout(2.0)
        ev.succeed("payload")

    engine.process(setter())
    assert engine.run(ev) == "payload"
    assert engine.now == 2.0


def test_run_until_unreachable_event_raises(engine):
    ev = engine.event()
    with pytest.raises(EmptySchedule):
        engine.run(ev)


def test_run_exhausts_all_events(engine):
    seen = []

    def proc(delay):
        yield engine.timeout(delay)
        seen.append(delay)

    for d in (3.0, 1.0, 2.0):
        engine.process(proc(d))
    engine.run()
    assert seen == [1.0, 2.0, 3.0]


def test_same_time_fifo_order(engine):
    """Events scheduled for the same instant fire in insertion order."""
    order = []

    def proc(tag):
        yield engine.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        engine.process(proc(tag))
    engine.run()
    assert order == list(range(10))


def test_peek(engine):
    assert engine.peek() == float("inf")
    engine.timeout(4.0)
    assert engine.peek() == 4.0


def test_peek_inf_after_exhaustion(engine):
    """Exhausting the schedule returns peek() to +inf, not a stale head."""
    engine.timeout(4.0)
    engine.run()
    assert engine.now == 4.0
    assert engine.peek() == float("inf")


def test_run_horizon_past_exhaustion_advances_now(engine):
    """run(until=T) past the last event still lands now exactly on T."""
    done = []

    def proc():
        yield engine.timeout(1.0)
        done.append(engine.now)

    engine.process(proc())
    engine.run(until=10.0)
    assert done == [1.0]
    assert engine.now == 10.0
    # And again with nothing scheduled at all.
    engine.run(until=12.5)
    assert engine.now == 12.5


def test_cancelled_entries_invisible_to_peek(engine):
    t1 = engine.timeout(1.0)
    engine.timeout(2.0)
    assert engine.peek() == 1.0
    assert t1.cancel() is True
    assert engine.peek() == 2.0
    assert engine.events_cancelled == 1


def test_cancelled_timeout_never_fires(engine):
    fired = []
    t1 = engine.timeout(1.0)
    t1.add_callback(lambda ev: fired.append("cancelled"))
    engine.timeout(2.0).add_callback(lambda ev: fired.append("kept"))
    t1.cancel()
    engine.run()
    assert fired == ["kept"]
    assert engine.now == 2.0


def test_cancel_is_idempotent_and_rejects_processed(engine):
    t = engine.timeout(1.0)
    engine.run()
    assert t.cancel() is False  # already processed
    ev = engine.event()
    assert ev.cancel() is False  # never scheduled
    t2 = engine.timeout(1.0)
    assert t2.cancel() is True
    assert t2.cancel() is False  # second cancel is a no-op


def test_timeout_at_schedules_absolute(engine):
    engine.timeout(1.0)
    engine.run()
    ev = engine.timeout_at(3.5, value="abs")
    got = engine.run(ev)
    assert got == "abs"
    assert engine.now == 3.5


def test_timeout_at_in_the_past_rejected(engine):
    engine.timeout(2.0)
    engine.run()
    with pytest.raises(ValueError):
        engine.timeout_at(1.0)


def test_pooled_timeout_recycled(engine):
    """A fired pooled timeout returns to the free-list and is reborn."""
    t1 = engine.pooled_timeout(1.0)
    engine.run()
    t2 = engine.pooled_timeout(2.0)
    assert t2 is t1  # same object, recycled
    got = []
    t2.add_callback(lambda ev: got.append(engine.now))
    engine.run()
    assert got == [3.0]


def test_determinism_two_identical_runs():
    """Identical programs produce identical event traces."""

    def build():
        eng = Engine()
        log = []

        def worker(k):
            for i in range(3):
                yield eng.timeout(0.5 * (k + 1))
                log.append((eng.now, k, i))

        for k in range(4):
            eng.process(worker(k))
        eng.run()
        return log

    assert build() == build()


def test_trace_disabled_by_default(engine):
    """No bus is attached unless one is subscribed: the unobserved fast path."""
    assert engine.obs is None and engine.on_step is None


# -- every run mode, with and without an observer ------------------------------

RUN_MODES = ["exhaust", "horizon", "until-event"]


def _engine(observed):
    eng = Engine()
    steps = []
    if observed:
        eng.on_step = lambda *key: steps.append(key)
    return eng, steps


def _until(mode, ev):
    return {"exhaust": None, "horizon": 5.0, "until-event": ev}[mode]


def test_t_busy_is_the_last_processed_event_after_exhaustion(engine):
    engine.timeout(4.0)
    engine.run()
    assert engine.t_busy == 4.0


@pytest.mark.parametrize("mode", RUN_MODES)
def test_observed_run_matches_unobserved(mode):
    def run(observed):
        eng, steps = _engine(observed)

        def worker(k):
            for _ in range(3):
                yield eng.timeout(0.5 * (k + 1))

        procs = [eng.process(worker(k)) for k in range(3)]
        eng.timeout(0.7).cancel()
        eng.run(_until(mode, procs[1]))
        return (eng.now, eng.t_busy, eng.events_popped, eng.events_cancelled), steps

    plain, _ = run(False)
    observed, steps = run(True)
    assert observed == plain
    assert len(steps) == plain[2] > 0
    assert plain[1] == {"exhaust": 4.5, "horizon": 4.5, "until-event": 3.0}[mode]


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "on_step"])
@pytest.mark.parametrize("mode", RUN_MODES)
def test_crash_propagates_in_every_mode(mode, observed):
    eng, _ = _engine(observed)

    def boom():
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    eng.process(boom())
    ev = eng.event()
    with pytest.raises(ProcessFailed):
        eng.run(_until(mode, ev))
    assert (eng.now, eng.t_busy, eng.events_popped) == (1.0, 1.0, 2)  # start + timeout
    assert ev.callbacks == []  # a failed run(until=ev) leaves no waiter


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "on_step"])
def test_empty_schedule_leaves_no_waiter(observed):
    eng, steps = _engine(observed)
    eng.timeout(1.0)
    ev = eng.event()
    with pytest.raises(EmptySchedule):
        eng.run(ev)
    assert (eng.now, eng.t_busy, eng.events_popped) == (1.0, 1.0, 1)
    assert ev.callbacks == []
    assert len(steps) == (1 if observed else 0)
