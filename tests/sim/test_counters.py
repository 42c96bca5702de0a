"""The run totals: ``STATS`` and ``GRAPHS`` share one ``Counters`` type."""

import pytest

from repro.dataplane.graph import GRAPHS
from repro.sim.engine import STATS, Counters, Engine


@pytest.mark.parametrize("totals", [STATS, GRAPHS], ids=["STATS", "GRAPHS"])
def test_misspelled_counter_raises(totals):
    assert isinstance(totals, Counters)
    with pytest.raises(AttributeError):
        totals.events_poped += 1
    with pytest.raises(AttributeError):
        totals.lanches = 1


def test_snapshot_keys_keep_their_names_and_order():
    assert list(STATS.snapshot()) == [
        "events_popped", "events_coalesced", "events_cancelled", "events_graphed", "peak_heap",
    ]
    assert list(GRAPHS.snapshot()) == [
        "launches", "captured_plans", "replayed_descriptors", "replanned",
    ]


def test_absorb_sums_each_counter_and_takes_the_max_peak_heap():
    total, worker = type(STATS)(), type(STATS)()
    total.events_popped, total.events_graphed, total.peak_heap = 5, 1, 9
    worker.events_popped, worker.events_coalesced, worker.events_cancelled = 3, 2, 7
    worker.events_graphed, worker.peak_heap = 4, 6
    total.absorb(worker.snapshot())
    assert total.snapshot() == {
        "events_popped": 8, "events_coalesced": 2, "events_cancelled": 7,
        "events_graphed": 5, "peak_heap": 9,
    }
    worker.peak_heap = 12
    total.absorb(worker.snapshot())
    assert total.peak_heap == 12 and total.events_popped == 11

    graphs = type(GRAPHS)()
    graphs.launches = 2
    graphs.absorb({"launches": 3, "captured_plans": 1, "replayed_descriptors": 4, "replanned": 5})
    assert graphs.snapshot() == {
        "launches": 5, "captured_plans": 1, "replayed_descriptors": 4, "replanned": 5,
    }
    graphs.reset()
    assert set(graphs.snapshot().values()) == {0}


def test_cancelled_entry_dropped_by_a_final_peek_reaches_stats():
    engine = Engine()
    assert engine.timeout(5.0).cancel()
    before = STATS.events_cancelled
    engine.run(1.0)
    assert engine.peek() == float("inf")
    assert engine.events_cancelled == 1
    assert STATS.events_cancelled - before == 1

