"""Blocking synchronization/queueing primitives built on events.

All primitives wake waiters through events — there is no busy polling.
Where the modelled hardware *would* poll (e.g. an MPI progression engine
watching a flag in host memory), the caller charges the detection latency
as a timeout instead of spinning the event loop.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, Hashable, List, Tuple, TypeVar

from repro.sim.engine import Engine
from repro.sim.events import Event

T = TypeVar("T")


class Flag:
    """A level-triggered boolean with event-based waiting.

    ``wait()`` returns an event that fires when the flag is (or becomes)
    set.  ``clear()`` re-arms the flag for the next epoch (used by
    persistent partitioned channels).
    """

    __slots__ = ("engine", "_set", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._set = False
        self._waiters: List[Event] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(True)

    def clear(self) -> None:
        self._set = False

    def wait(self) -> Event:
        ev = Event(self.engine)
        if self._set:
            ev.succeed(True)
        else:
            self._waiters.append(ev)
        return ev


class Counter:
    """A monotone counter supporting ``wait_for(threshold)``.

    Used for partition-aggregation counters (device atomics) and for
    completion counting (e.g. MPI_Wait counting arrived partitions).
    """

    __slots__ = ("engine", "_value", "_waiters")

    def __init__(self, engine: Engine, initial: int = 0) -> None:
        self.engine = engine
        self._value = initial
        self._waiters: List[tuple] = []  # (threshold, event)

    @property
    def value(self) -> int:
        return self._value

    def add(self, amount: int = 1) -> int:
        """Atomically add; returns the new value; wakes satisfied waiters."""
        if amount < 0:
            raise ValueError("Counter is monotone; use reset() to rewind")
        self._value += amount
        if self._waiters:
            still: List[tuple] = []
            for threshold, ev in self._waiters:
                if self._value >= threshold:
                    ev.succeed(self._value)
                else:
                    still.append((threshold, ev))
            self._waiters = still
        return self._value

    def reset(self, value: int = 0) -> None:
        """Rewind for a new epoch; outstanding waiters stay armed."""
        self._value = value

    def wait_for(self, threshold: int) -> Event:
        ev = Event(self.engine)
        if self._value >= threshold:
            ev.succeed(self._value)
        else:
            self._waiters.append((threshold, ev))
        return ev


class Channel(Generic[T]):
    """Unbounded keyed FIFO rendezvous between processes.

    ``put(item, key)`` never blocks; ``get(key)`` returns an event yielding
    the next item put under ``key``.  Items and getters pair strictly FIFO
    per key, whichever side arrives first — MPI's "communicator, rank, tag,
    and the order in which they are posted" matching (paper Section
    II-B1).  A key holds a deque only while it has items or getters.
    """

    __slots__ = ("engine", "_items", "_getters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: Dict[Hashable, Deque[T]] = {}
        self._getters: Dict[Hashable, Deque[Event]] = {}

    def put(self, item: T, key: Hashable = None) -> None:
        getters = self._getters.get(key)
        if getters is not None:
            getters.popleft().succeed(item)
            if not getters:
                del self._getters[key]
        elif key in self._items:
            self._items[key].append(item)
        else:
            self._items[key] = deque((item,))

    def get(self, key: Hashable = None) -> Event:
        ev = Event(self.engine)
        items = self._items.get(key)
        if items is not None:
            ev.succeed(items.popleft())
            if not items:
                del self._items[key]
        elif key in self._getters:
            self._getters[key].append(ev)
        else:
            self._getters[key] = deque((ev,))
        return ev

    def withdraw(self, getter: Event, key: Hashable = None) -> None:
        """Take back ``getter`` if it is still parked under ``key``."""
        getters = self._getters.get(key)
        if getters is not None and getter in getters:
            getters.remove(getter)
            if not getters:
                del self._getters[key]

    def unmatched(self) -> Tuple[int, int]:
        """(items never got, getters still parked) over every key."""
        return (
            sum(map(len, self._items.values())),
            sum(map(len, self._getters.values())),
        )


class Resource:
    """Counted resource (semaphore) with FIFO grant order.

    Models serialized hardware ports: e.g. a link's injection port or the
    single MPI progression thread.  ``name`` labels contention spans on
    the instrumentation bus (``cat="resource"``): one span per *queued*
    acquire, covering request-to-grant — uncontended grants stay silent.
    """

    __slots__ = ("engine", "capacity", "name", "_in_use", "_queue")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        ev = Event(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            obs = self.engine.obs
            if obs is not None:
                t0 = self.engine.now
                label = self.name or "resource"
                ev.add_callback(
                    lambda _ev: obs.span(
                        "resource", label, None, t0, self.engine.now,
                        queued=True,
                    )
                )
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release() without acquire()")
        if self._queue:
            # Hand the slot directly to the next waiter.
            self._queue.popleft().succeed(self)
        else:
            self._in_use -= 1
