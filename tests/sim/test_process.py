"""Process semantics: yields, returns, failures, interrupts, kills, nesting."""

import gc
import weakref

import pytest

from repro.sim.engine import Engine
from repro.sim.process import Interrupt, Process, ProcessFailed


def test_return_value(engine):
    def proc():
        yield engine.timeout(1)
        return "result"

    assert engine.run(engine.process(proc())) == "result"


def test_requires_generator(engine):
    with pytest.raises(TypeError):
        Process(engine, lambda: None)


def test_yield_number_is_timeout(engine):
    def proc():
        yield 2.5
        return engine.now

    assert engine.run(engine.process(proc())) == 2.5


def test_yield_none_resumes_at_same_time(engine):
    def proc():
        t0 = engine.now
        yield None
        return engine.now - t0

    assert engine.run(engine.process(proc())) == 0.0


def test_yield_garbage_rejected(engine):
    def proc():
        yield "nonsense"

    with pytest.raises(TypeError):
        engine.run(engine.process(proc()))


def test_wait_for_subprocess(engine):
    def child():
        yield engine.timeout(3)
        return 7

    def parent():
        value = yield engine.process(child())
        return value * 2

    assert engine.run(engine.process(parent())) == 14
    assert engine.now == 3


def test_child_failure_propagates(engine):
    def child():
        yield engine.timeout(1)
        raise KeyError("lost")

    def parent():
        with pytest.raises(KeyError):
            yield engine.process(child())
        return "caught"

    assert engine.run(engine.process(parent())) == "caught"


def test_unwaited_crash_surfaces(engine):
    def lonely():
        yield engine.timeout(1)
        raise RuntimeError("unobserved")

    engine.process(lonely())
    with pytest.raises(ProcessFailed):
        engine.run()


def test_interrupt_wakes_sleeper(engine):
    def sleeper():
        try:
            yield engine.timeout(100)
        except Interrupt as exc:
            return ("interrupted", exc.cause, engine.now)

    p = engine.process(sleeper())

    def killer():
        yield engine.timeout(2)
        p.interrupt(cause="deadline")

    engine.process(killer())
    assert engine.run(p) == ("interrupted", "deadline", 2.0)


def test_interrupt_after_done_is_noop(engine):
    def quick():
        yield engine.timeout(1)
        return "ok"

    p = engine.process(quick())
    engine.run(p)
    p.interrupt()  # must not raise
    assert p.value == "ok"


def test_is_alive(engine):
    def proc():
        yield engine.timeout(5)

    p = engine.process(proc())
    assert p.is_alive
    engine.run(p)
    assert not p.is_alive


def test_deeply_nested_yield_from(engine):
    def level3():
        yield engine.timeout(1)
        return 3

    def level2():
        v = yield from level3()
        yield engine.timeout(1)
        return v + 2

    def level1():
        v = yield from level2()
        return v + 1

    assert engine.run(engine.process(level1())) == 6
    assert engine.now == 2


def test_many_processes_complete(engine):
    done = []

    def proc(k):
        yield engine.timeout(k % 7 + 1)
        done.append(k)

    for k in range(500):
        engine.process(proc(k))
    engine.run()
    assert sorted(done) == list(range(500))


def test_finished_process_is_freed_by_refcounting(engine):
    """No process<->bound-method cycle: a finished process (and its return
    value) dies with its last reference, without the cyclic collector."""

    class Sentinel:
        pass

    def producer():
        yield 1.0
        return Sentinel()

    def consumer(p):
        got = yield p
        return type(got).__name__

    gc.disable()
    try:
        p = engine.process(producer())
        engine.process(consumer(p))
        engine.run()
        ref = weakref.ref(p.value)
        del p
        assert ref() is None
    finally:
        gc.enable()


# -- kill and the pre-start lifecycle -----------------------------------------

def test_kill_before_start_never_runs_body(engine):
    ran = []

    def body():
        ran.append(engine.now)
        yield 1.0

    p = engine.process(body())

    def waiter():
        return (yield p)

    w = engine.process(waiter())
    p.kill()
    assert not p.is_alive
    assert engine.run(w) is None
    assert ran == []
    assert (engine.now, engine.events_popped, engine.peak_heap) == (0.0, 4, 3)


def test_kill_while_parked_cancels_its_timeout(engine):
    def sleeper():
        yield 5.0

    p = engine.process(sleeper())

    def killer():
        yield 1.0
        p.kill()

    engine.process(killer())
    engine.run()
    assert p.value is None
    assert engine.events_cancelled == 1
    assert engine.now == engine.t_busy == 1.0  # never advanced to the dead wait


def test_interrupt_before_start_runs_body_then_throws(engine):
    log = []

    def body():
        log.append(("start", engine.now))
        try:
            yield 10.0
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, engine.now))

    p = engine.process(body())
    p.interrupt("early")
    engine.run(p)
    assert log == [("start", 0.0), ("interrupted", "early", 0.0)]
    assert (engine.now, engine.events_popped, engine.peak_heap) == (0.0, 3, 2)
