"""Pinned event streams of the link-transfer state machine.

Each case drives :func:`repro.hw.links.start_transfer` over hand-built
links and hashes the engine's step log — the ``(time, priority,
seq)`` key of every pop, in pop order.  The digests pin the transfer's
heap traffic: boot, one grant per hop, serialization end, latency end and
completion, including the fault paths (abort while queued, pricing after
a degrade, a raising ``on_wire_done``).  Every case also ends with each
link's congestion signal back at zero.
"""

import hashlib

import pytest

from repro.hw.links import Link, LinkDownError, LinkState, start_transfer
from repro.sim.engine import Engine
from repro.sim.process import ProcessFailed


def _links(engine, *specs):
    """``(name, bandwidth, latency, overhead)`` tuples -> links + state."""
    links = [
        Link(engine, name, bandwidth=bw, latency=lat, overhead=ovh)
        for name, bw, lat, ovh in specs
    ]
    return links, LinkState(engine, {link.name: link for link in links})


def _waited(engine, outcomes, tag, route, nbytes, on_wire_done=None):
    """A process that submits one transfer, waits on it and records how
    it ended — as the dataplane's guarded path does."""

    def body():
        try:
            value = yield start_transfer(engine, route, nbytes, on_wire_done)
        except (LinkDownError, RuntimeError) as exc:
            outcomes.append((tag, engine.now, type(exc).__name__))
        else:
            outcomes.append((tag, engine.now, value))

    return engine.process(body(), name=f"wait-{tag}")


def _at(engine, t, fn):
    engine.timeout(t).add_callback(lambda _ev: fn())


def _digest(steps):
    return len(steps), hashlib.sha256(repr(steps).encode()).hexdigest()


def _contention(engine):
    (a,), _state = _links(engine, ("a", 100.0, 2.0, 0.5))
    out = []
    _waited(engine, out, "t1", [a], 300)
    _waited(engine, out, "t2", [a], 100)
    engine.run()
    assert out == [("t1", 5.5, 300), ("t2", 7.0, 100)]
    return [a]


def _three_hop(engine):
    links, _state = _links(
        engine,
        ("h0", 1000.0, 1.0, 0.0),
        ("h1", 50.0, 0.5, 0.25),
        ("h2", 200.0, 2.0, 0.0),
    )
    h0, h1, h2 = links
    out = []
    # A one-hop transfer holds the middle link first, so the 3-hop route
    # queues at its second grant.
    _waited(engine, out, "mid", [h1], 100)
    _waited(engine, out, "route", [h0, h1, h2], 500)
    engine.run()
    assert out == [("mid", 2.75, 100), ("route", 16.0, 500)]
    assert [ln.bytes_carried for ln in links] == [500, 600, 500]
    return links


def _down_while_queued(engine):
    links, state = _links(
        engine, ("a", 10.0, 1.0, 0.0), ("b", 10.0, 1.0, 0.0),
    )
    a, b = links
    out = []
    _waited(engine, out, "holder", [a], 100)
    _waited(engine, out, "queued", [b, a], 50)
    _waited(engine, out, "behind", [b], 20)
    _at(engine, 4.0, lambda: state.down_link("a"))
    # After the fault lands, a fresh submission aborts at its boot.
    _at(engine, 6.0, lambda: _waited(engine, out, "late", [a], 10))
    engine.run()
    assert out == [
        ("late", 6.0, "LinkDownError"),
        ("queued", 10.0, "LinkDownError"),
        ("holder", 11.0, 100),
        ("behind", 13.0, 20),
    ]
    assert a.n_transfers == 1 and b.n_transfers == 1
    return links


def _degrade_before_grant(engine):
    (a,), state = _links(engine, ("a", 100.0, 1.0, 0.0))
    out = []
    _waited(engine, out, "first", [a], 400)
    _waited(engine, out, "second", [a], 100)
    _at(engine, 1.0, lambda: state.degrade_bandwidth("a", 0.5))
    engine.run()
    # The second transfer is priced at grant time (t=4), at half speed.
    assert out == [("first", 5.0, 400), ("second", 7.0, 100)]
    return [a]


def _raising_wire_done(engine):
    links, _state = _links(
        engine, ("a", 100.0, 1.0, 0.0), ("b", 100.0, 1.0, 0.0),
    )
    a, b = links

    def boom():
        raise RuntimeError("copy failed")

    out = []
    _waited(engine, out, "waited", [a, b], 100, boom)
    _waited(engine, out, "sibling", [b], 100)
    engine.run()
    assert out == [("sibling", 2.0, 100), ("waited", 4.0, "RuntimeError")]
    # Nobody waits on this one: the error surfaces from engine.run.
    start_transfer(engine, [a], 100, boom)
    with pytest.raises(ProcessFailed, match="copy failed"):
        engine.run()
    return links


# Each case: (length, SHA-256 of the repr) of its step log.
_CASES = {
    "contention": (_contention, (
        14, "767ea3cb957b2e903e92d5fec0c300b056c6a1756d3e12096860fafd4f8c7f06",
    )),
    "three_hop": (_three_hop, (
        16, "33d343e534afa68c84366ed028ce718bce8dcf1b5f58cf5586a8e5465bf4da70",
    )),
    "down_while_queued": (_down_while_queued, (
        26, "26fcb52e7bc44f7fa85de4117df1bc3703c78a7c680a26aea347cf2bbd9eb593",
    )),
    "degrade_before_grant": (_degrade_before_grant, (
        15, "cea87fd61ec98e2166c467f623603dc53078af674a5ce896fb7cc75a704c35c3",
    )),
    "raising_wire_done": (_raising_wire_done, (
        19, "4cda8e2203d249ffac2d02320336eda5f133f635acd60c072f8f00e313c6fa11",
    )),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_transfer_stream_matches_pinned_digest(case):
    build, pinned = _CASES[case]
    engine = Engine()
    engine.steps = steps = []
    links = build(engine)
    assert _digest(steps) == pinned
    assert [ln.outstanding_bytes for ln in links] == [0] * len(links)
    assert all(ln.port._in_use == 0 and ln.port.queued == 0 for ln in links)


def test_bare_transfer_charges_its_route_until_it_ends():
    """The link transfer owns the congestion signal: a bare start_transfer
    charges every link of its route at the call and discharges it when it
    ends, by completion or by a LinkDownError abort."""
    engine = Engine()
    links, state = _links(engine, ("a", 1e9, 1e-6, 0.0), ("b", 1e9, 1e-6, 0.0))
    done = start_transfer(engine, links, 4096)
    assert [ln.outstanding_bytes for ln in links] == [4096, 4096]
    engine.run(done)
    assert [ln.outstanding_bytes for ln in links] == [0, 0]

    first = start_transfer(engine, links[:1], 1 << 20)
    second = start_transfer(engine, links, 512)  # queues behind first on "a"
    assert [ln.outstanding_bytes for ln in links] == [(1 << 20) + 512, 512]
    ended = []
    second.callbacks.append(lambda ev: ended.append(type(ev.value).__name__))
    _at(engine, 1e-9, lambda: state.down_link("a"))
    engine.run()
    assert first.ok and ended == ["LinkDownError"]
    assert [ln.outstanding_bytes for ln in links] == [0, 0]
