"""The deterministic mailbox: window queues + a keyed recv rendezvous.

Two halves, split by who owns the state:

* :class:`WindowQueue` lives **driver-side** (one queue per shard, in
  the process that runs the window loop).  Routed
  :class:`~repro.shard.message.ShardMessage`s are posted here; at each
  window the driver *takes* the batch with ``deliver <= horizon``,
  **sorted by the merge key** ``(deliver, src_shard, seq)``.  Because the
  take happens in the driving process for every execution mode, the
  injection schedule — and therefore each shard's ``(time, priority,
  seq)`` step stream — is independent of how shards are grouped onto
  workers.

* :class:`Mailbox` lives **shard-side**.  :meth:`Mailbox.schedule` turns
  a taken batch into absolute-time delivery events on the shard engine
  (allocating heap seq numbers in batch order), and :meth:`Mailbox.recv`
  gives workload processes a rendezvous event per ``(dst_gpu, tag)`` key
  from one keyed :class:`~repro.sim.resources.Channel`.
  Delivery and recv commute at the same instant with the same pop count
  (arrival-first queues the payload; recv-first parks a waiter), which
  keeps ``events_popped`` identical between windowed and single-heap
  runs (DESIGN.md §14).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.shard.message import ShardMessage
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Channel


class MailboxError(Exception):
    """A cross-shard message was malformed or misaddressed."""


class WindowQueue:
    """Driver-side pending messages for one destination shard."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: List[ShardMessage] = []

    def post(self, msg: ShardMessage) -> None:
        self._pending.append(msg)

    def next_deliver(self) -> float:
        """Earliest pending delivery time, +inf when empty."""
        return min((m.deliver for m in self._pending), default=float("inf"))

    def take(self, horizon: float) -> List[ShardMessage]:
        """Remove and return the merge-ordered batch with deliver <= horizon."""
        if not self._pending:
            return []
        self._pending.sort(key=lambda m: m.merge_key)
        cut = 0
        for msg in self._pending:
            if msg.deliver > horizon:
                break
            cut += 1
        batch, self._pending = self._pending[:cut], self._pending[cut:]
        return batch

    def __len__(self) -> int:
        return len(self._pending)


class Mailbox:
    """Shard-side delivery scheduling + (gpu, tag) rendezvous."""

    def __init__(self, engine: Engine, shard_id: int) -> None:
        self.engine = engine
        self.shard_id = shard_id
        #: Arrivals and parked recvs, FIFO per (dst_gpu, tag).
        self._slots: Channel[ShardMessage] = Channel(engine)
        #: Messages scheduled over the shard's lifetime (tests assert this).
        self.injected = 0

    def schedule(self, batch: List[ShardMessage]) -> None:
        """Turn a taken window batch into delivery events, in batch order.

        Each message becomes one absolute-time event; the heap sequence
        numbers allocated here are what the step-hash stream pins, so the
        caller must pass batches exactly as :meth:`WindowQueue.take`
        produced them.
        """
        engine = self.engine
        for msg in batch:
            ev = engine.timeout_at(msg.deliver, value=msg)
            ev.add_callback(self._deliver)
        self.injected += len(batch)

    def _deliver(self, ev: Event) -> None:
        msg: ShardMessage = ev.value
        self._slots.put(msg, (msg.dst_gpu, msg.tag))

    def recv(self, dst_gpu: int, tag: Tuple) -> Event:
        """An event firing when a message for ``(dst_gpu, tag)`` lands.

        The event value is the :class:`ShardMessage`.  Multiple recvs of
        the same key match arrivals in delivery order (FIFO).
        """
        return self._slots.get((dst_gpu, tag))

    def unmatched(self) -> Tuple[int, int]:
        """(arrived-but-never-received, recvs-still-waiting) — leak check."""
        return self._slots.unmatched()
