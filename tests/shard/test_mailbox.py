"""Mailbox layer: window queues, rendezvous slots, bridge edges, wire model."""

import numpy as np
import pytest

from repro.dataplane.descriptor import DescriptorError
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.generators import (
    min_internode_latency,
    resolve_machine,
    wire_bandwidth,
    wire_latency,
)
from repro.shard import (
    Mailbox,
    MailboxError,
    RemoteBuffer,
    Shard,
    WindowQueue,
    WireModel,
    local_spec,
)
from repro.shard.message import ShardMessage
from repro.sim.engine import Engine
from repro.units import us


def _msg(deliver, src_shard=1, seq=1, dst_gpu=0, tag=("t",)):
    return ShardMessage(
        deliver, src_shard, seq, 0, dst_gpu, 8, tag, 64, "shard", "m"
    )


# -- WindowQueue --------------------------------------------------------------

def test_window_queue_merge_order_and_horizon_split():
    q = WindowQueue()
    late = _msg(3 * us)
    tie_b = _msg(1 * us, src_shard=2, seq=1)
    tie_a = _msg(1 * us, src_shard=1, seq=2)
    first = _msg(1 * us, src_shard=1, seq=1)
    for m in (late, tie_b, tie_a, first):
        q.post(m)
    assert q.next_deliver() == 1 * us
    batch = q.take(2 * us)
    # Sorted by (deliver, src_shard, seq); deliver > horizon stays queued.
    assert batch == [first, tie_a, tie_b]
    assert len(q) == 1 and q.next_deliver() == 3 * us
    assert q.take(10 * us) == [late]
    assert q.take(10 * us) == [] and q.next_deliver() == float("inf")


def test_window_queue_take_is_horizon_inclusive():
    q = WindowQueue()
    q.post(_msg(2 * us))
    assert q.take(2 * us) == [_msg(2 * us)]


# -- Mailbox ------------------------------------------------------------------

def test_recv_after_arrival():
    engine = Engine()
    mb = Mailbox(engine, 0)
    msg = _msg(1 * us)
    mb.schedule([msg])
    engine.run()
    assert mb.injected == 1
    assert mb.unmatched() == (1, 0)
    ev = mb.recv(0, ("t",))
    assert ev.triggered and ev.value == msg
    assert mb.unmatched() == (0, 0)


def test_recv_before_arrival():
    engine = Engine()
    mb = Mailbox(engine, 0)
    got = []

    def waiter():
        got.append((yield mb.recv(0, ("t",))))

    engine.process(waiter())
    msg = _msg(1 * us)
    mb.schedule([msg])
    engine.run()
    assert got == [msg]
    assert engine.now == pytest.approx(1 * us)
    assert mb.unmatched() == (0, 0)


def test_recv_matches_fifo_in_delivery_order():
    engine = Engine()
    mb = Mailbox(engine, 0)
    early = _msg(1 * us, seq=1)
    late = _msg(2 * us, seq=2)
    mb.schedule([early, late])
    engine.run()
    assert mb.recv(0, ("t",)).value == early
    assert mb.recv(0, ("t",)).value == late


def test_distinct_tags_do_not_match():
    engine = Engine()
    mb = Mailbox(engine, 0)
    mb.schedule([_msg(1 * us, tag=("a",))])
    engine.run()
    ev = mb.recv(0, ("b",))
    assert not ev.triggered
    assert mb.unmatched() == (1, 1)


# -- Shard + bridge edges -----------------------------------------------------

SPEC = resolve_machine("fat-tree-32-r2-l2")


def _empty_build(shard, cfg):
    return []


def _make_shard(sid=0):
    return Shard(SPEC, sid, _empty_build, {})


def _dev_buf(nbytes, gpu=0):
    return Buffer.alloc_virtual(nbytes, np.uint8, MemSpace.DEVICE, 0, gpu)


def test_remote_buffer_rejects_negative_size():
    with pytest.raises(MailboxError, match="negative"):
        RemoteBuffer(9, -1, ("t",))


def test_bridge_rejects_remote_source_pull():
    shard = _make_shard()
    with pytest.raises(MailboxError, match="cannot pull"):
        shard.fabric.dataplane.put(shard.remote(9, 64, ("t",)), _dev_buf(64))


def test_bridge_rejects_shard_local_remote_dst():
    shard = _make_shard()  # shard 0 owns global gpus 0..7
    with pytest.raises(MailboxError, match="shard-local"):
        shard.put(_dev_buf(64), shard.remote(3, 64, ("t",)))


def test_bridge_rejects_payload_size_mismatch():
    shard = _make_shard()
    with pytest.raises(DescriptorError, match="size mismatch"):
        shard.put(_dev_buf(64), shard.remote(9, 128, ("t",)))


def test_bridge_rejects_negative_control_size():
    """A cross-shard descriptor gets the same validation as a local one."""
    shard = _make_shard()
    dp = shard.fabric.dataplane
    with pytest.raises(DescriptorError, match="negative transfer size -64"):
        dp.control(_dev_buf(8), _dev_buf(8, gpu=1), nbytes=-64)
    with pytest.raises(DescriptorError, match="negative transfer size -64"):
        dp.control(_dev_buf(8), shard.remote(9, 8, ("t",)), nbytes=-64)
    assert shard.bridge.bytes_by_class == {}
    assert shard.bridge.drain() == []


def test_rma_put_to_remote_goes_through_the_bridge():
    shard = _make_shard()
    dp = shard.fabric.dataplane
    dp.rma_put(_dev_buf(64), shard.remote(9, 64, ("t",)))
    assert dp.submissions == 1
    assert shard.bridge.bytes_by_class == {"rma": 64}
    assert len(shard.bridge.drain()) == 1


def test_bridge_emits_wire_priced_message():
    shard = _make_shard()
    nbytes = 1 << 16
    ev = shard.put(_dev_buf(nbytes), shard.remote(9, nbytes, ("t",)))
    out = shard.bridge.drain()
    assert len(out) == 1
    msg = out[0]
    assert (msg.src_shard, msg.dst_shard) == (0, 1)
    assert (msg.src_gpu, msg.dst_gpu) == (0, 9)
    assert msg.deliver == pytest.approx(
        wire_latency(SPEC, 0, 9) + nbytes / wire_bandwidth(SPEC, 0, 9)
    )
    assert shard.bridge.bytes_by_class == {"shard": nbytes}
    # Local completion fires at the delivery time, beyond any window that
    # could have produced the send (the conservative-lookahead invariant).
    assert not ev.processed
    shard.engine.run()
    assert ev.processed and shard.engine.now == pytest.approx(msg.deliver)


def test_to_local_rejects_foreign_gpu():
    shard = _make_shard()
    with pytest.raises(MailboxError, match="not hosted"):
        shard.recv(9, ("t",))
    assert shard.owns_gpu(7) and not shard.owns_gpu(8)


def test_local_spec_is_a_single_node_cut():
    cut = local_spec(SPEC, 2)
    assert cut.n_nodes == 1
    assert cut.fabric is None
    assert cut.nodes[0] == SPEC.nodes[2]
    assert cut.nic_out == SPEC.nic_out and cut.nic_in == SPEC.nic_in


# -- Engine.t_busy ------------------------------------------------------------

def test_t_busy_tracks_last_pop_not_horizon():
    engine = Engine()
    assert engine.t_busy == 0.0
    engine.timeout_at(1 * us)
    engine.run(5 * us)
    assert engine.now == pytest.approx(5 * us)
    assert engine.t_busy == pytest.approx(1 * us)
    # An empty window advances now but never t_busy.
    engine.run(9 * us)
    assert engine.t_busy == pytest.approx(1 * us)


# -- WireModel ----------------------------------------------------------------

def test_wire_model_caches_by_relationship():
    wire = WireModel(SPEC)
    # gpus 0 and 2 sit on node 0 rail 0; 8 and 10 on node 1 rail 0.
    assert wire.price(0, 8) == wire.price(2, 10)
    assert len(wire._cache) == 1
    wire.price(0, 9)  # cross-rail: a second relationship class
    assert len(wire._cache) == 2


def test_wire_model_deliver_time_and_lookahead():
    wire = WireModel(SPEC)
    lat, bw = wire.price(0, 8)
    nbytes = 1 << 20
    assert wire.deliver_time(3 * us, 0, 8, nbytes) == pytest.approx(
        3 * us + lat + nbytes / bw
    )
    assert wire.lookahead() == pytest.approx(min_internode_latency(SPEC))
    assert wire.lookahead() <= lat
