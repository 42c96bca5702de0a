"""Tag matching: wildcards, ordering, keyed FIFO matcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.matching import ANY, TagMatcher, envelope_matches
from repro.sim.engine import Engine
from repro.sim.resources import Channel


def test_envelope_matches_exact():
    assert envelope_matches(2, 5, 2, 5)
    assert not envelope_matches(2, 5, 3, 5)
    assert not envelope_matches(2, 5, 2, 6)


def test_envelope_wildcards():
    assert envelope_matches(ANY, 5, 9, 5)
    assert envelope_matches(2, ANY, 2, 99)
    assert envelope_matches(ANY, ANY, 0, 0)


def test_posted_matches_arrival():
    m = TagMatcher()
    assert m.post_recv(0, 1, 7, "rreq") is None
    assert m.deliver(0, 1, 7, "msg") == "rreq"
    assert len(m._posted) == 0


def test_unexpected_then_post():
    m = TagMatcher()
    assert m.deliver(0, 1, 7, "early") is None
    assert len(m._unexpected) == 1
    assert m.post_recv(0, 1, 7, "rreq") == "early"
    assert len(m._unexpected) == 0


def test_comm_isolation():
    m = TagMatcher()
    m.post_recv(0, 1, 7, "rreq_comm0")
    assert m.deliver(1, 1, 7, "msg_comm1") is None  # different communicator
    assert len(m._unexpected) == 1


def test_non_overtaking_same_envelope():
    """Two messages with identical envelopes match posted recvs in order."""
    m = TagMatcher()
    m.post_recv(0, 1, 7, "first")
    m.post_recv(0, 1, 7, "second")
    assert m.deliver(0, 1, 7, "m1") == "first"
    assert m.deliver(0, 1, 7, "m2") == "second"


def test_wildcard_source_takes_any_sender():
    m = TagMatcher()
    m.post_recv(0, ANY, 7, "rreq")
    assert m.deliver(0, 3, 7, "from3") == "rreq"


def test_specific_posted_before_wildcard():
    m = TagMatcher()
    m.post_recv(0, 2, 7, "specific")
    m.post_recv(0, ANY, 7, "wild")
    assert m.deliver(0, 2, 7, "x") == "specific"
    assert m.deliver(0, 9, 7, "y") == "wild"


def test_unexpected_fifo_for_wildcard_post():
    m = TagMatcher()
    m.deliver(0, 1, 7, "a")
    m.deliver(0, 2, 7, "b")
    assert m.post_recv(0, ANY, 7, "r") == "a"  # earliest unexpected wins


def test_keyed_matcher_fifo(engine):
    km = Channel(engine)
    km.put(1, "k")
    km.put(2, "k")
    got = []

    def getter():
        got.append((yield km.get("k")))
        got.append((yield km.get("k")))

    engine.run(engine.process(getter()))
    assert got == [1, 2]


def test_keyed_matcher_blocks_until_put(engine):
    km = Channel(engine)

    def getter():
        return (yield km.get("x"))

    p = engine.process(getter())

    def putter():
        yield engine.timeout(1)
        km.put("late", "x")

    engine.process(putter())
    assert engine.run(p) == "late"


def test_keyed_matcher_key_isolation(engine):
    km = Channel(engine)
    km.put(1, "a")
    assert km.unmatched() == (1, 0)
    km.get("b")
    assert km.unmatched() == (1, 1)
    assert km.get("a").value == 1
    assert km.unmatched() == (0, 1)
    km.put(2, "b")
    # A key's deque is dropped once it empties.
    assert km.unmatched() == (0, 0) and not km._items and not km._getters


def test_keyed_matcher_withdraw_takes_back_only_a_parked_getter(engine):
    km = Channel(engine)
    first, second = km.get("x"), km.get("x")
    km.withdraw(first, "x")
    km.put("item", "x")  # pairs with the getter still parked
    assert second.value == "item" and not first.triggered
    km.withdraw(second, "x")  # matched already: nothing to take back
    km.withdraw(first, "y")  # never parked under "y"
    assert km.unmatched() == (0, 0) and not km._getters


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_every_message_pairs_exactly_once(envelopes):
    """Deliver each message then post an exactly-matching recv: every
    message is consumed exactly once, FIFO per envelope."""
    m = TagMatcher()
    for i, (src, tag) in enumerate(envelopes):
        assert m.deliver(0, src, tag, ("msg", i)) is None
    got = []
    for src, tag in envelopes:
        matched = m.post_recv(0, src, tag, "r")
        assert matched is not None
        got.append(matched[1])
    assert len(m._unexpected) == 0
    # Per-envelope FIFO: indices for identical envelopes appear in order.
    from collections import defaultdict

    per_env = defaultdict(list)
    for i, env in enumerate(envelopes):
        per_env[env].append(i)
    picked = defaultdict(list)
    for env, idx in zip(envelopes, got):
        picked[env].append(idx)
    for env in per_env:
        assert picked[env] == per_env[env]
