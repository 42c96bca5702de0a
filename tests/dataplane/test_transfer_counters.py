"""Link transfers drain identically whether or not the run is observed.

A link transfer's drain stage updates each link's counters, publishes
the link's busy span when a bus observes the run, and hands each port on
inline, without a ``Link.account`` or ``Resource.release`` call per hop.
One small point runs unobserved and observed under every path policy,
and both runs must leave the same ledger and link counters, with no byte
outstanding and no port held.
"""

import numpy as np
import pytest

from repro.dataplane import policy_by_name
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.topology import Fabric
from repro.obs.bus import Bus
from repro.sim.engine import Engine
from repro.units import MiB


class _Spans:
    """A subscriber that only counts what the drain publishes."""

    def __init__(self):
        self.links = 0
        self.queued = 0

    def on_event(self, ev):
        if ev.cat == "link":
            self.links += 1
        elif ev.cat == "resource":
            self.queued += 1


def _dev(gpu, n, virtual=False, fill=None):
    if virtual:
        return Buffer.alloc_virtual(n, space=MemSpace.DEVICE, node=0, gpu=gpu)
    return Buffer.alloc(n, space=MemSpace.DEVICE, node=0, gpu=gpu, fill=fill)


def _point(policy, observed):
    """Concurrent puts and controls that queue on shared ports, plus one
    4 MiB put (it stripes under ``multi``); returns the run's state."""
    engine = Engine()
    fab = Fabric(engine, ONE_NODE)
    fab.dataplane.policy = policy_by_name(policy)
    spans = _Spans()
    if observed:
        bus = Bus()
        bus.subscribe(spans)
        bus.attach(engine)
    dp = fab.dataplane
    host = Buffer.alloc(8, space=MemSpace.PINNED, node=0)
    pairs = [(_dev(0, 64, fill=float(i + 1)), _dev(1 + i % 3, 64)) for i in range(6)]
    big = (_dev(0, 4 * MiB // 8, virtual=True), _dev(1, 4 * MiB // 8, virtual=True))
    events = [dp.put(src, dst, traffic_class="eager") for src, dst in pairs]
    events.append(dp.put(*big, traffic_class="bulk"))
    events += [dp.control(pairs[i][0], pairs[i][1], nbytes=64) for i in range(4)]
    events.append(dp.control(pairs[0][0], host, nbytes=8, traffic_class="flag"))
    engine.run()
    assert all(ev.ok for ev in events)
    assert all(np.array_equal(src.data, dst.data) for src, dst in pairs)
    links = {
        link.name: (link.bytes_carried, link.n_transfers) for link in fab.iter_links()
    }
    for link in fab.iter_links():
        assert link.outstanding_bytes == 0, link.name
        assert link.port._in_use == 0, link.name
    return engine.now, dp.ledger.as_dict(), links, spans


@pytest.mark.parametrize("policy", ["single", "multi", "congestion"])
def test_unobserved_drain_matches_observed(policy):
    t_plain, ledger_plain, links_plain, silent = _point(policy, observed=False)
    t_obs, ledger_obs, links_obs, spans = _point(policy, observed=True)
    assert silent.links == 0
    assert spans.links == sum(n for _b, n in links_obs.values())
    assert spans.queued > 0  # some drain handed its port to a waiter
    assert t_plain == t_obs
    assert ledger_plain == ledger_obs
    assert links_plain == links_obs
    if policy == "multi":
        assert ledger_plain["bulk"]["stripes"] >= 2
    else:
        assert ledger_plain["bulk"]["stripes"] == 1
