"""Byte-conservation properties via link telemetry."""

import numpy as np
import pytest

from repro.bench.telemetry import report, snapshot
from repro.hw.params import ONE_NODE
from repro.hw.spec.catalog import SPECS
from repro.mpi.world import World
from repro.partitioned.prequest import CopyMode
from repro.partitioned import device as pdev
from repro.cuda.kernel import BlockKernel
from repro.cuda.timing import WorkSpec


def _partitioned_send(mode, n=4096, partitions=4):
    """Run one device-initiated partitioned send; return (world, snaps)."""
    world = World(ONE_NODE)
    snaps = {}

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
            snaps["before"] = snapshot(ctx.world.fabric)

            def body(blk):
                yield blk.compute(WorkSpec.vector_add())
                yield pdev.pready(blk, preq)

            yield from ctx.gpu.launch_h(BlockKernel(partitions, n // partitions, body))
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(n)
            rreq = yield from comm.precv_init(rbuf, partitions, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()
            snaps["after"] = snapshot(ctx.world.fabric)
            assert np.all(rbuf.data == 1.0)

    world.run(main, nprocs=2)
    return world, snaps


@pytest.mark.parametrize("mode", [CopyMode.PROGRESSION_ENGINE, CopyMode.KERNEL_COPY])
def test_payload_bytes_cross_nvlink_exactly_once(mode):
    n = 4096
    world, snaps = _partitioned_send(mode, n=n)
    delta = snaps["before"].delta(snaps["after"])
    payload = n * 8
    # The payload crosses NVLink exactly once (plus nothing else that big).
    assert delta["nvlink"].bytes == payload
    # And exactly `partitions` data transfers happened on NVLink.
    assert delta["nvlink"].transfers == 4


def test_signalling_goes_over_c2c_not_nvlink():
    world, snaps = _partitioned_send(CopyMode.PROGRESSION_ENGINE)
    delta = snaps["before"].delta(snaps["after"])
    # Device -> host ready signals: at least one per transport partition.
    assert delta["c2c_d2h"].transfers >= 4
    assert delta["c2c_d2h"].bytes < 1024  # tiny flag stores only


def test_intra_node_send_uses_no_nic():
    world, snaps = _partitioned_send(CopyMode.KERNEL_COPY)
    delta = snaps["before"].delta(snaps["after"])
    assert delta["nic_out"].bytes == 0
    assert delta["nic_in"].bytes == 0


def test_inter_node_payload_crosses_nic_once():
    config = SPECS["gh200-2x1"]
    world = World(config)
    n = 8192

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n, fill=2.0)
            before = snapshot(ctx.world.fabric)
            yield from comm.send(sbuf, dest=1, tag=0)
            return before
        rbuf = ctx.gpu.alloc(n)
        yield from comm.recv(rbuf, source=0, tag=0)
        return snapshot(ctx.world.fabric)

    before, after = world.run(main, nprocs=2)
    delta = before.delta(after)
    # Data once through the NIC; control envelopes are small.
    assert n * 8 <= delta["nic_out"].bytes < n * 8 + 2048


def test_delta_reports_classes_missing_from_later_snapshot():
    """Regression: classes only present in `before` used to vanish from the
    delta; they must show up (as negative deltas) instead."""
    from repro.bench.telemetry import FabricSnapshot, LinkStats

    before = FabricSnapshot({
        "nvlink": LinkStats(bytes=100, transfers=2),
        "nic_out": LinkStats(bytes=7, transfers=1),
    })
    later = FabricSnapshot({"nvlink": LinkStats(bytes=150, transfers=3)})
    delta = before.delta(later)
    assert delta["nvlink"].bytes == 50 and delta["nvlink"].transfers == 1
    assert "nic_out" in delta.classes
    assert delta["nic_out"].bytes == -7 and delta["nic_out"].transfers == -1


@pytest.mark.parametrize("mode", [CopyMode.PROGRESSION_ENGINE, CopyMode.KERNEL_COPY])
def test_bus_counters_match_link_snapshot_delta(mode):
    """Per-class totals derived from link events on the obs bus agree with
    the in-place counters (snapshot delta) for every link class a run
    touched."""
    from repro.bench.telemetry import FabricSnapshot
    from repro.obs import bus as obs_bus
    from repro.obs.profile import Collector
    from repro.sim.run import run_scope
    from tests.obs.test_profile import link_kind_totals

    bus = obs_bus.Bus()
    collector = Collector()
    bus.subscribe(collector)
    with run_scope(bus=bus):
        world, snaps = _partitioned_send(mode)
    flows = link_kind_totals(collector.events)
    # Events cover the whole run; compare against a zero 'before'.
    full = FabricSnapshot().delta(snapshot(world.fabric))
    assert full.classes
    for kind, st in full.classes.items():
        assert flows.get(kind, (0, 0)) == (st.bytes, st.transfers), kind


def test_report_renders(one_node_world):
    def main(ctx):
        yield from ctx.comm.barrier()

    one_node_world.run(main, nprocs=2)
    text = report(one_node_world.fabric)
    assert "nvlink" in text and "hostmem" in text
