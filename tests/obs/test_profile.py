"""Utilization and critical-path analysis: unit cases plus a full
partitioned-send workload cross-checked against the fabric telemetry."""

import numpy as np
import pytest

from repro.bench.telemetry import FabricSnapshot, snapshot
from repro.cuda.kernel import BlockKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.obs import bus as obs_bus
from repro.obs.bus import SPAN, ObsEvent
from repro.obs.profile import (
    Collector,
    critical_path,
    render_critical_path,
    render_utilization,
    utilization,
)
from repro.partitioned import device as pdev
from repro.partitioned.prequest import CopyMode
from repro.sim.run import run_scope


def _span(name, cat, t0, t1, seq, actor=None, **payload):
    return ObsEvent(SPAN, cat, name, actor, t0, t1, seq, payload)


# -- utilization: unit cases -------------------------------------------------

def test_overlapping_intervals_merge():
    events = [
        _span("nvl0->1", "link", 0.0, 2.0, 1, nbytes=10, kind="nvlink"),
        _span("nvl0->1", "link", 1.0, 3.0, 2, nbytes=10, kind="nvlink"),
        _span("nvl0->1", "link", 5.0, 6.0, 3, nbytes=10, kind="nvlink"),
    ]
    rep = utilization(events)
    track = rep["nvl0->1"]
    assert track.busy == pytest.approx(4.0)  # [0,3] merged + [5,6]
    assert track.spans == 3 and track.bytes == 30
    assert track.kind == "nvlink"
    assert rep.window == pytest.approx(6.0)


def test_kernel_spans_roll_up_per_gpu_sm():
    events = [
        _span("vadd", "kernel", 0.0, 1.0, 1, actor=("gpu", "gpu0")),
        _span("vadd", "kernel", 2.0, 3.0, 2, actor=("gpu", "gpu0")),
        _span("vadd", "kernel", 0.0, 4.0, 3, actor=("gpu", "gpu1")),
    ]
    rep = utilization(events)
    assert rep["gpu0.sm"].busy == pytest.approx(2.0)
    assert rep["gpu1.sm"].busy == pytest.approx(4.0)
    assert {t.key for t in rep.group("sm")} == {"gpu0.sm", "gpu1.sm"}


def test_non_occupancy_categories_ignored():
    events = [
        _span("wait", "resource", 0.0, 5.0, 1),
        _span("nvl0->1", "link", 0.0, 1.0, 2, kind="nvlink"),
    ]
    rep = utilization(events)
    assert set(rep.tracks) == {"nvl0->1"}


def test_render_handles_empty_stream():
    assert "no occupancy spans" in render_utilization(utilization([]))


# -- critical path: unit cases -----------------------------------------------

def test_chain_walks_back_through_enabling_spans():
    a = _span("a", "kernel", 0.0, 1.0, 1, actor=("gpu", "g"))
    b = _span("b", "link", 1.0, 2.0, 2)
    c = _span("c", "pe", 2.0, 3.0, 3, actor=("pe", 0))
    parallel = _span("p", "stream", 0.0, 0.5, 4, actor=("s",))
    chain = critical_path([parallel, c, a, b])
    assert [e.name for e in chain] == ["a", "b", "c"]


def test_chain_is_deterministic_under_ties():
    evs = [
        _span("x", "kernel", 0.0, 1.0, 1, actor=("gpu", "g")),
        _span("y", "kernel", 0.0, 1.0, 2, actor=("gpu", "g")),
        _span("z", "link", 1.0, 2.0, 3),
    ]
    first = [e.seq for e in critical_path(evs)]
    second = [e.seq for e in critical_path(list(evs))]
    assert first == second
    assert first[-1] == 3


def test_empty_stream_yields_empty_chain():
    assert critical_path([]) == []
    assert "no spans" in render_critical_path([])


# -- full workload -----------------------------------------------------------

def _profiled_send(mode=CopyMode.PROGRESSION_ENGINE, n=4096, partitions=4):
    """Fig. 4-style intra-node partitioned send, observed end to end."""
    bus = obs_bus.Bus()
    collector = Collector()
    bus.subscribe(collector)
    with run_scope(bus=bus):
        world = World(ONE_NODE)

        def main(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                sbuf = ctx.gpu.alloc(n, fill=1.0)
                sreq = yield from comm.psend_init(sbuf, partitions, dest=1, tag=0)
                yield from sreq.start()
                yield from sreq.pbuf_prepare()
                preq = yield from sreq.prequest_create(
                    ctx.gpu, grid=partitions, block=n // partitions, mode=mode
                )

                def body(blk):
                    yield blk.compute(WorkSpec.vector_add())
                    yield pdev.pready(blk, preq)

                yield from ctx.gpu.launch_h(
                    BlockKernel(partitions, n // partitions, body)
                )
                yield from sreq.wait()
            else:
                rbuf = ctx.gpu.alloc(n)
                rreq = yield from comm.precv_init(rbuf, partitions, source=0, tag=0)
                yield from rreq.start()
                yield from rreq.pbuf_prepare()
                yield from rreq.wait()
                assert np.all(rbuf.data == 1.0)

        world.run(main, nprocs=2)
    return world, collector.events


def test_workload_busy_tracks_are_plausible():
    world, events = _profiled_send()
    rep = utilization(events)
    assert rep.window > 0
    # The send kernel ran on gpu0's SMs and a progression engine dispatched.
    assert rep["gpu0.sm"].busy > 0
    assert any(t.busy > 0 for t in rep.group("progress_engine"))
    # Payload bytes appear on an NVLink track.
    nv = [t for t in rep.group("link") if t.kind == "nvlink"]
    assert sum(t.bytes for t in nv) >= 4096 * 8
    # Busy time never exceeds the observation window.
    assert all(t.busy <= rep.window + 1e-12 for t in rep.tracks.values())


def link_kind_totals(events):
    """Per-telemetry-class ``(bytes, transfers)`` from link span events."""
    totals = {}
    for ev in events:
        if ev.kind != SPAN or ev.cat != "link":
            continue
        kind = ev.get("kind", ev.name)
        b, n = totals.get(kind, (0, 0))
        totals[kind] = (b + ev.get("nbytes", 0), n + ev.get("transfers", 1))
    return totals


def test_link_busy_bytes_match_fabric_telemetry():
    """Acceptance: per-class byte totals derived from link events equal the
    bench.telemetry in-place counters for the same run."""
    world, events = _profiled_send()
    flows = link_kind_totals(events)
    counters = FabricSnapshot().delta(snapshot(world.fabric))
    for kind, st in counters.classes.items():
        ev_bytes, ev_transfers = flows.get(kind, (0, 0))
        assert ev_bytes == st.bytes, kind
        assert ev_transfers == st.transfers, kind


def test_workload_critical_path_properties():
    world, events = _profiled_send()
    chain = critical_path(events)
    assert chain
    spans = [e for e in events if e.kind == SPAN]
    last = max(spans, key=lambda e: (e.t1, e.seq))
    assert chain[-1] is last
    # Chain is time-ordered with no overlapping consecutive spans.
    for prev, nxt in zip(chain, chain[1:]):
        assert prev.t1 <= nxt.t0 + 1e-12
    # Re-running the analysis replays the identical chain.
    assert [e.seq for e in critical_path(events)] == [e.seq for e in chain]
    assert "critical path:" in render_critical_path(chain)


def test_render_utilization_mentions_all_groups():
    world, events = _profiled_send()
    text = render_utilization(utilization(events))
    for token in ("gpu0.sm", "link", "progress_engine", "stream"):
        assert token in text
