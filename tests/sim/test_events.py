"""Event primitives: triggering, callbacks, the AllOf combinator."""

import pytest

from repro.sim.events import AllOf, Event


def test_event_lifecycle(engine):
    ev = engine.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered and not ev.processed
    engine.run()
    assert ev.processed and ev.ok and ev.value == 42


def test_value_before_trigger_raises(engine):
    with pytest.raises(RuntimeError):
        _ = engine.event().value


def test_double_trigger_rejected(engine):
    ev = engine.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception(engine):
    with pytest.raises(TypeError):
        engine.event().fail("not an exception")


def test_fail_propagates_to_waiter(engine):
    ev = engine.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    proc = engine.process(waiter())
    ev.fail(ValueError("boom"))
    assert engine.run(proc) == "handled"


def test_callback_after_processed_runs_immediately(engine):
    ev = engine.event()
    ev.succeed("x")
    engine.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["x"]


def test_allof_collects_values_in_order(engine):
    def worker(delay, value):
        yield engine.timeout(delay)
        return value

    procs = [engine.process(worker(d, v)) for d, v in ((3, "a"), (1, "b"), (2, "c"))]

    def main():
        return (yield AllOf(engine, procs))

    assert engine.run(engine.process(main())) == ["a", "b", "c"]
    assert engine.now == 3


def test_allof_empty_fires_immediately(engine):
    cond = AllOf(engine, [])
    assert cond.triggered
    assert engine.run(cond) == []


def test_allof_fails_fast(engine):
    def bad():
        yield engine.timeout(1)
        raise RuntimeError("dead")

    def slow():
        yield engine.timeout(100)

    cond = AllOf(engine, [engine.process(bad()), engine.process(slow())])

    def main():
        with pytest.raises(RuntimeError, match="dead"):
            yield cond
        return engine.now

    assert engine.run(engine.process(main())) == 1.0


def test_condition_rejects_foreign_engine(engine):
    from repro.sim.engine import Engine

    other = Engine()
    with pytest.raises(ValueError):
        AllOf(engine, [other.event()])
