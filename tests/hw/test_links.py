"""Link model: serialization, latency, FIFO sharing, accounting."""

import pytest

from repro.hw.links import Link, start_transfer
from repro.sim.engine import Engine


def test_link_validation(engine):
    with pytest.raises(ValueError):
        Link(engine, "bad", bandwidth=0, latency=0)
    with pytest.raises(ValueError):
        Link(engine, "bad", bandwidth=1, latency=-1)
    with pytest.raises(ValueError):
        Link(engine, "bad", bandwidth=1, latency=0, overhead=-1)


def test_serialization_time():
    eng = Engine()
    link = Link(eng, "l", bandwidth=100.0, latency=0.5, overhead=0.1)
    eng.run(start_transfer(eng, [link], nbytes=1000))
    # overhead + bytes / bandwidth serializing, then the latency
    assert eng.now == pytest.approx(0.1 + 10.0 + 0.5)


def test_single_transfer_timing(engine):
    link = Link(engine, "l", bandwidth=100.0, latency=2.0)
    done = start_transfer(engine, [link], nbytes=500)
    engine.run(done)
    # serialization 5.0 then latency 2.0
    assert engine.now == pytest.approx(7.0)


def test_transfers_share_bandwidth_fifo(engine):
    link = Link(engine, "l", bandwidth=100.0, latency=0.0)
    ends = []
    for _ in range(3):
        ev = start_transfer(engine, [link], nbytes=100)
        ev.add_callback(lambda e: ends.append(engine.now))
    engine.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_latency_overlaps_between_transfers(engine):
    """Cut-through: the second transfer serializes while the first's
    latency elapses."""
    link = Link(engine, "l", bandwidth=100.0, latency=10.0)
    ends = []
    for _ in range(2):
        start_transfer(engine, [link], nbytes=100).add_callback(
            lambda e: ends.append(engine.now)
        )
    engine.run()
    assert ends == [pytest.approx(11.0), pytest.approx(12.0)]


def test_multihop_bottleneck(engine):
    fast = Link(engine, "fast", bandwidth=1000.0, latency=1.0)
    slow = Link(engine, "slow", bandwidth=10.0, latency=2.0)
    done = start_transfer(engine, [fast, slow], nbytes=100)
    engine.run(done)
    # bottleneck ser 10.0 + total latency 3.0
    assert engine.now == pytest.approx(13.0)


def test_overhead_charged_once_per_message(engine):
    link = Link(engine, "l", bandwidth=1e9, latency=0.0, overhead=1.0)
    done = start_transfer(engine, [link], nbytes=8)
    engine.run(done)
    assert engine.now == pytest.approx(1.0, abs=1e-6)


def test_byte_accounting(engine):
    link = Link(engine, "l", bandwidth=100.0, latency=0.0)
    for n in (10, 20, 30):
        start_transfer(engine, [link], nbytes=n)
    engine.run()
    assert link.bytes_carried == 60
    assert link.n_transfers == 3


def test_on_wire_done_callback_sees_arrival_time(engine):
    link = Link(engine, "l", bandwidth=100.0, latency=5.0)
    seen = []
    start_transfer(engine, [link], nbytes=100, on_wire_done=lambda: seen.append(engine.now))
    engine.run()
    assert seen == [pytest.approx(6.0)]


def test_empty_route_rejected(engine):
    with pytest.raises(ValueError):
        engine.run(start_transfer(engine, [], 10))


def test_negative_size_rejected(engine):
    link = Link(engine, "l", bandwidth=1.0, latency=0.0)
    with pytest.raises(ValueError):
        engine.run(start_transfer(engine, [link], -5))
