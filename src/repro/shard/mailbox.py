"""The deterministic mailbox: window queues + recv rendezvous slots.

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
  gives workload processes a rendezvous event per ``(dst_gpu, tag)`` key.
  Delivery and recv commute at the same instant with the same pop count
  (arrival-first queues the payload; recv-first parks a waiter), which
  keeps ``events_popped`` identical between windowed and single-heap
  runs (DESIGN.md §14).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.shard.message import ShardMessage
from repro.sim.engine import Engine
from repro.sim.events import Event


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
    """Shard-side delivery scheduling + (gpu, tag) rendezvous slots."""

    def __init__(self, engine: Engine, shard_id: int) -> None:
        self.engine = engine
        self.shard_id = shard_id
        #: (dst_gpu, tag) -> payloads that arrived before their recv.
        self._arrived: Dict[Tuple, Deque[ShardMessage]] = {}
        #: (dst_gpu, tag) -> recv events parked before their arrival.
        self._waiting: Dict[Tuple, Deque[Event]] = {}
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
        key = (msg.dst_gpu, msg.tag)
        waiters = self._waiting.get(key)
        if waiters:
            waiters.popleft().succeed(msg)
            if not waiters:
                del self._waiting[key]
        else:
            self._arrived.setdefault(key, deque()).append(msg)

    def recv(self, dst_gpu: int, tag: Tuple) -> Event:
        """An event firing when a message for ``(dst_gpu, tag)`` lands.

        The event value is the :class:`ShardMessage`.  Multiple recvs of
        the same key match arrivals in delivery order (FIFO).
        """
        key = (dst_gpu, tag)
        ev = Event(self.engine)
        arrived = self._arrived.get(key)
        if arrived:
            ev.succeed(arrived.popleft())
            if not arrived:
                del self._arrived[key]
        else:
            self._waiting.setdefault(key, deque()).append(ev)
        return ev

    def unmatched(self) -> Tuple[int, int]:
        """(arrived-but-never-received, recvs-still-waiting) — leak check."""
        return (
            sum(len(d) for d in self._arrived.values()),
            sum(len(d) for d in self._waiting.values()),
        )
