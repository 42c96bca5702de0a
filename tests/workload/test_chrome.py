"""Chrome-trace export -> replay schedule -> matching byte ledgers.

The dataplane emits one ``cat="dataplane"`` instant per accounted
descriptor; ``from_chrome`` rebuilds an ``xfer`` schedule from exactly
those events, so replaying the schedule on the same machine must
reproduce the original run's per-class ledger byte and transfer counts.
"""

from repro.hw.params import ONE_NODE
from repro.obs.bus import Bus
from repro.obs.chrome import ChromeTraceExporter, validate_trace
from repro.sim.run import run_scope
from repro.workload import get
from repro.workload.replay import ReplayWorkload, from_chrome


def _traced_pingpong():
    bus = Bus()
    exporter = ChromeTraceExporter()
    bus.subscribe(exporter)
    with run_scope(bus=bus):
        result = get("pingpong").run()
    return result, exporter.to_obj()


def test_chrome_round_trip_preserves_class_ledgers():
    original, trace = _traced_pingpong()
    validate_trace(trace)
    sched = from_chrome(trace)
    assert sched.has_op("xfer")
    replayed = ReplayWorkload(sched).run(machine=ONE_NODE)
    assert set(replayed.class_bytes) == set(original.class_bytes)
    for cls, pinned in original.class_bytes.items():
        got = replayed.class_bytes[cls]
        assert got["bytes"] == pinned["bytes"], cls
        assert got["transfers"] == pinned["transfers"], cls


def test_chrome_round_trip_schedule_is_stable():
    _, trace = _traced_pingpong()
    a = from_chrome(trace)
    b = from_chrome(trace)
    assert a.digest == b.digest
