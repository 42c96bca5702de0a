"""Blocking synchronization/queueing primitives built on events.

All primitives wake waiters through events — there is no busy polling.
Where the modelled hardware *would* poll (e.g. an MPI progression engine
watching a flag in host memory), the model charges a detection latency via
``Flag(detect_latency=...)`` instead of spinning the event loop.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, List, Optional, TypeVar

from repro.sim.engine import Engine
from repro.sim.events import Event, PRIORITY_NORMAL

T = TypeVar("T")


class Flag:
    """A level-triggered boolean with event-based waiting.

    ``wait()`` returns an event that fires when the flag is (or becomes)
    set.  ``detect_latency`` models the delay between the flag being set in
    memory and a polling observer noticing it.  ``clear()`` re-arms the flag
    for the next epoch (used by persistent partitioned channels).
    """

    __slots__ = ("engine", "_set", "_waiters", "detect_latency", "set_count")

    def __init__(self, engine: Engine, detect_latency: float = 0.0) -> None:
        self.engine = engine
        self._set = False
        self._waiters: List[Event] = []
        self.detect_latency = detect_latency
        self.set_count = 0  # total number of set() calls (telemetry)

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        self.set_count += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if self.detect_latency:
                self.engine.timeout(self.detect_latency).add_callback(
                    lambda _t, ev=ev: ev.succeed(True) if not ev.triggered else None
                )
            else:
                ev.succeed(True)

    def clear(self) -> None:
        self._set = False

    def wait(self) -> Event:
        ev = Event(self.engine)
        if self._set:
            if self.detect_latency:
                self.engine.timeout(self.detect_latency).add_callback(
                    lambda _t: ev.succeed(True)
                )
            else:
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
    """Unbounded FIFO message queue between processes.

    ``put`` never blocks; ``get`` returns an event yielding the next item.
    Getters are served in FIFO order.
    """

    __slots__ = ("engine", "_items", "_getters", "name")

    def __init__(self, engine: Engine, name: str = "chan") -> None:
        self.engine = engine
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: T) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[T]:
        """Non-blocking get; None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Store(Channel[T]):
    """Alias of Channel kept for SimPy familiarity."""


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
    def in_use(self) -> int:
        return self._in_use

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
