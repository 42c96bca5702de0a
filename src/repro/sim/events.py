"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence: it is *pending* until it is
either :meth:`~Event.succeed`-ed with a value or :meth:`~Event.fail`-ed with
an exception, at which point every registered callback fires exactly once.
Processes wait on events by ``yield``-ing them.

A heap entry is ``(time, priority, seq, event)``; popping it calls the
event's ``_run_callbacks``.  Some events are their own entry more than
once: a :class:`~repro.sim.process.Process` is pushed to boot, once per
sleep (``yield <delay>`` allocates no :class:`Timeout`) and to
terminate, and a :class:`~repro.sim.process.Delayed` or a link transfer
is pushed once per stage.  A :class:`Timeout` is for waits that are not a
process's own sleep: a shared timer, a valued wait, or a callback.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

# Scheduling priorities: lower fires first at equal simulated time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait for.

    Events move through three states: *pending* -> *triggered* (scheduled on
    the engine heap) -> *processed* (callbacks have run).  ``value`` holds
    the success payload or the failure exception.
    """

    __slots__ = (
        "engine", "callbacks", "_value", "_ok", "_triggered", "_processed",
        "_cancelled",
    )

    _PENDING = object()

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded/failed."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._triggered:
            raise RuntimeError("event has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Engine._schedule_event, inlined: this is the hottest producer.
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now, priority, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise RuntimeError("event has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() expects an exception, got {exc!r}")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.engine._schedule_event(self, priority)
        return self

    def cancel(self) -> bool:
        """Lazily delete a scheduled-but-unprocessed event from the heap.

        The heap entry stays put (removing from the middle of a binary heap
        is O(n)); the engine skips it on pop without advancing time or
        running callbacks, and :meth:`Engine.peek` never reports it.  Only
        an event with no remaining waiters should be cancelled — callbacks
        registered on it will silently never fire.  Returns True when the
        event was actually pending on the heap.
        """
        if not self._triggered or self._processed or self._cancelled:
            return False
        self._cancelled = True
        return True

    # -- engine internals ---------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb``; runs immediately if the event already processed."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    A process that only sleeps yields the bare delay instead: it takes
    the same heap key without allocating one of these.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not (delay >= 0):  # also rejects NaN, which would break heap order
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        # Event.__init__ and Engine._schedule_event, inlined.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = self._triggered = True
        self._processed = self._cancelled = False
        self.delay = delay
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now + delay, PRIORITY_NORMAL, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)


class ConditionError(Exception):
    """Raised on a waiter when a sub-event of a condition failed."""


class AllOf(Event):
    """Fires when *all* sub-events have fired; value is their value list.

    Fails as soon as any sub-event fails.
    """

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: List[Event] = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all condition events must share one engine")
            ev.add_callback(self._on_sub_event)

    def _on_sub_event(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value if isinstance(ev.value, BaseException) else ConditionError(repr(ev)))
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e.value for e in self.events])
