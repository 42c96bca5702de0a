"""The DES coroutine effect checker (effect-illegal-yield)."""

import textwrap

from .conftest import FIXTURES, rules_of

ONLY = ["effect-illegal-yield"]


def src(body):
    return {"m.py": textwrap.dedent(body)}


# -- effect-illegal-yield ----------------------------------------------------

def test_literal_yield_in_driven_process_flagged(analyze):
    findings = analyze(src("""
        def worker(engine):
            yield "not an event"

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert rules_of(findings) == ["effect-illegal-yield"]
    assert "str literal" in findings[0].message


def test_negative_delay_flagged(analyze):
    findings = analyze(src("""
        def worker(engine):
            yield -1.5

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert rules_of(findings) == ["effect-illegal-yield"]
    assert "negative delay" in findings[0].message


def test_yield_reached_through_helper_closure(analyze):
    # the illegal yield hides two `yield from` hops below the root
    findings = analyze(src("""
        def deepest(engine):
            yield {"payload": 1}

        def middle(engine):
            yield from deepest(engine)

        def worker(engine):
            yield from middle(engine)

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert rules_of(findings) == ["effect-illegal-yield"]
    assert findings[0].function == "deepest"


def test_yield_of_generator_call_suggests_yield_from(analyze):
    findings = analyze(src("""
        def steps(engine):
            yield engine.timeout(1)

        def worker(engine):
            yield steps(engine)

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert rules_of(findings) == ["effect-illegal-yield"]
    assert "yield from" in findings[0].message


def test_yield_from_non_generator_flagged(analyze):
    findings = analyze(src("""
        def helper(engine):
            return engine.timeout(1)

        def worker(engine):
            yield from helper(engine)

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert rules_of(findings) == ["effect-illegal-yield"]


def test_legal_yields_and_undriven_generators_clean(analyze):
    findings = analyze(src("""
        def worker(engine, ev):
            yield               # bare: reschedule immediately
            yield None
            yield 0
            yield 2.5
            yield ev
            yield engine.timeout(3)

        def main(engine, ev):
            engine.process(worker(engine, ev))

        def string_iterator():
            yield "fine"        # never handed to the engine: not a process
    """), only=ONLY)
    assert findings == []


def test_helper_with_mixed_returns_not_flagged(analyze):
    findings = analyze(src("""
        def delay(fast):
            if fast:
                return "oops"
            return 1.0

        def worker(engine):
            yield delay(True)

        def main(engine):
            engine.process(worker(engine))
    """), only=ONLY)
    assert findings == []       # one return may be legal: unknown, stay quiet


# -- the seeded fixture -------------------------------------------------------

def test_fixture_bugs_found_statically(analyze_path):
    findings = analyze_path(FIXTURES / "effects_bug.py", only=ONLY)
    assert rules_of(findings) == ONLY
    assert [f.line for f in findings] == [26]
