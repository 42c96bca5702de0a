"""Process semantics: yields, returns, failures, kills, nesting."""

import ast
import gc
import math
import weakref
from pathlib import Path

import pytest

import repro
from repro.sim.engine import Engine
from repro.sim.process import Delayed, Holding, Process, ProcessFailed
from repro.sim.resources import Resource


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


# -- bad delays fail the process, not the engine ---------------------------------

BAD_DELAYS = {
    "negative": (-1.0, ValueError),
    "nan": (math.nan, ValueError),
    "str": ("x", TypeError),
}


def _bad_sleeper(engine, delay, cleaned):
    def body():
        try:
            yield 1.0
            yield delay
        finally:
            cleaned.append(engine.now)

    return engine.process(body())


@pytest.mark.parametrize("bad", list(BAD_DELAYS))
def test_bad_delay_fails_the_waiter(engine, bad):
    delay, exc_type = BAD_DELAYS[bad]
    cleaned = []
    p = _bad_sleeper(engine, delay, cleaned)

    def waiter():
        with pytest.raises(exc_type):
            yield p
        return "seen"

    assert engine.run(engine.process(waiter())) == "seen"
    assert cleaned == [1.0]
    assert not p.is_alive


@pytest.mark.parametrize("bad", list(BAD_DELAYS))
def test_unwaited_bad_delay_is_process_failed(engine, bad):
    delay, exc_type = BAD_DELAYS[bad]
    cleaned = []
    p = _bad_sleeper(engine, delay, cleaned)
    with pytest.raises(ProcessFailed) as failed:
        engine.run()
    assert failed.value.process is p
    assert isinstance(failed.value.exc, exc_type)
    assert cleaned == [1.0]
    assert not p.is_alive


# -- self-parking: a sleep pops exactly like a Timeout wait -------------------------

def _observed(scenario):
    eng = Engine()
    eng.steps = steps = []
    log = scenario(eng)
    eng.run()
    return steps, log, eng.events_popped, eng.peak_heap, eng.now


@pytest.mark.parametrize("delay", [0, None, 1.5])
def test_yield_delay_pops_like_a_timeout(delay):
    def scenario(sleep):
        def run(eng):
            log = []

            def sleeper(k):
                for i in range(3):
                    yield sleep(eng)
                    log.append((eng.now, k, i))
                return k

            def parent():
                got = yield eng.process(sleeper(0))
                yield sleep(eng)
                log.append(("parent", got, eng.now))

            eng.process(parent())
            for k in (1, 2):
                eng.process(sleeper(k))
            return log

        return run

    bare = _observed(scenario(lambda eng: delay))
    timed = _observed(scenario(lambda eng: eng.timeout(delay or 0)))
    assert bare == timed
    assert bare[2] > 0


# -- Delayed: the one-shot process body as one event -------------------------------

def _as_process(eng, delay, fn):
    def body():
        yield delay
        return fn()

    return eng.process(body())


@pytest.mark.parametrize("delay", [0.0, 1.5])
def test_delayed_pops_like_its_generator(delay):
    def scenario(make):
        def run(eng):
            log = []

            def fn():
                log.append(("fn", eng.now))
                return len(log)

            def waiter():
                got = yield make(eng, delay, fn)
                log.append(("got", got, eng.now))
                yield 0.5

            eng.process(waiter())
            make(eng, delay, fn)  # and one nobody waits on
            return log

        return run

    chained = _observed(scenario(Delayed))
    generator = _observed(scenario(_as_process))
    assert chained == generator
    # The unwaited chain was built first, so its fn ran first.
    assert chained[1][-1] == ("got", 2, delay)


def _boom():
    raise KeyError("lost")


def test_delayed_failure_fails_its_waiter(engine):
    def waiter():
        with pytest.raises(KeyError):
            yield Delayed(engine, 1.0, _boom)
        return "caught"

    assert engine.run(engine.process(waiter())) == "caught"


def test_unwaited_delayed_failure_is_process_failed(engine):
    chain = Delayed(engine, 1.0, _boom)
    with pytest.raises(ProcessFailed) as failed:
        engine.run()
    assert failed.value.process is chain
    assert isinstance(failed.value.exc, KeyError)


# -- Holding: the resource-holding body as one chain --------------------------------

def _holding_as_process(eng, res, delay, start):
    def body():
        yield res.acquire()
        try:
            yield delay
            value = yield start()
        finally:
            res.release()
        return value

    return eng.process(body())


def _holding(eng, res, delay, start):
    return Holding(eng, res, delay, start, ("test", "hold", None, {}))


def _holding_scenario(case):
    def scenario(make):
        def run(eng):
            res = Resource(eng)
            log = []

            def waiter(k, start):
                try:
                    got = yield make(eng, res, 0.5, start)
                except KeyError as exc:
                    got = ("failed", repr(exc))
                log.append((k, got, eng.now, res._in_use, res.queued))

            if case == "uncontended":
                eng.process(waiter(0, lambda: eng.timeout(1.0, "v")))
            elif case == "contended":
                for k in range(3):
                    eng.process(waiter(k, lambda k=k: eng.timeout(1.0 + k, k)))
                make(eng, res, 0.25, lambda: eng.timeout(0.1))  # one nobody waits on
            elif case == "processed":
                early = eng.event().succeed("early")

                def late():
                    yield early
                    assert early.processed
                    yield from waiter(0, lambda: early)

                eng.process(late())
            else:  # a failing start() event, then a second holder
                eng.process(waiter(0, lambda: Delayed(eng, 0.5, _boom)))
                eng.process(waiter(1, lambda: eng.timeout(1.0, "after")))
            return log

        return run

    return scenario


@pytest.mark.parametrize("case", ["uncontended", "contended", "processed", "failing"])
def test_holding_pops_like_its_generator(case):
    chained = _observed(_holding_scenario(case)(_holding))
    generator = _observed(_holding_scenario(case)(_holding_as_process))
    assert chained == generator
    log = chained[1]
    assert log[-1][3:] == (0, 0)  # released, nobody queued
    if case == "failing":
        assert log[0][1][0] == "failed" and log[1][1] == "after"


def test_unwaited_holding_failure_releases_and_is_process_failed(engine):
    res = Resource(engine)
    chain = _holding(engine, res, 0.5, lambda: Delayed(engine, 0.5, _boom))
    with pytest.raises(ProcessFailed) as failed:
        engine.run()
    assert failed.value.process is chain
    assert isinstance(failed.value.exc, KeyError)
    assert res._in_use == 0 and not chain.ok


def test_holding_start_raising_releases(engine):
    res = Resource(engine)

    def waiter():
        with pytest.raises(KeyError):
            yield _holding(engine, res, 0.5, _boom)
        return engine.now, res._in_use

    assert engine.run(engine.process(waiter())) == (0.5, 0)


# -- guard: src sleeps never allocate a Timeout ------------------------------------

def _discarded_timeout_yields(tree):
    """Line numbers of ``yield <expr>.timeout(...)`` statements."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Yield)
        and isinstance(node.value.value, ast.Call)
        and isinstance(node.value.value.func, ast.Attribute)
        and node.value.value.func.attr == "timeout"
    ]


def test_discarded_timeout_guard_finds_both_shapes():
    tree = ast.parse(
        "def body(eng):\n"
        "    yield eng.timeout(1.0)\n"
        "    yield eng.timeout(\n        2.0\n    )\n"
        "    v = yield eng.timeout(3.0, 'valued')\n"
        "    yield 4.0\n"
    )
    assert _discarded_timeout_yields(tree) == [2, 3]


def test_no_src_sleep_allocates_a_timeout():
    """A process sleeps with ``yield d``: it parks as its own heap entry,
    where a discarded ``yield x.timeout(d)`` allocates a Timeout, a
    callback list and a bound method for the same pop."""
    src = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(src)}:{line}"
        for path in sorted(src.rglob("*.py"))
        for line in _discarded_timeout_yields(ast.parse(path.read_text()))
    ]
    assert found == []
