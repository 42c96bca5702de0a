"""The discrete-event engine: a time-ordered heap of triggered events.

Time is a ``float`` in **seconds**.  Constants throughout the code base use
the helpers in :mod:`repro.units` (``us``, ``GiB`` …) to stay readable.

Determinism: heap entries are ``(time, priority, seq)``; ``seq`` is a
monotone counter so ties break by insertion order.  Nothing in the engine
consults wall-clock time or global randomness.

Wall-clock fast path (DESIGN.md §11): :meth:`Engine.run` is the only pop
loop.  It hoists the ``obs`` observer and the ``steps`` log into locals
before the loop, so an unobserved pop costs two ``is None`` tests and no
method calls.  Both must therefore be attached *before* ``run`` is
entered; nothing in the deterministic core attaches one mid-run.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.sim import run as _run
from repro.sim.events import Event, Timeout
from repro.sim.process import Process, ProcessFailed
from repro.sim.run import current

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.bus import Bus


_INF = float("inf")


class EmptySchedule(Exception):
    """run() exhausted all events before reaching the requested time."""


class Counters:
    """Process-wide run totals, named ints that reset, snapshot and absorb alike.

    A subclass only declares its counters as ``__slots__`` (slotted all the
    way down, so a misspelled ``+=`` raises :class:`AttributeError`).  The
    code that counts adds to the module-level instances (:data:`STATS`,
    :data:`repro.dataplane.graph.GRAPHS`) directly, so harnesses can total
    work over the many short-lived Worlds a sweep creates.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def absorb(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        The cluster driver absorbs each forked worker's snapshot, in
        ascending shard-block order, once the worker finishes; the sums
        do not depend on how shards were grouped onto workers.  A
        ``peak_*`` counter merges by max: shard heaps coexist, they
        don't sum.
        """
        for name in self.__slots__:
            mine, theirs = getattr(self, name), snap[name]
            setattr(self, name, max(mine, theirs) if name.startswith("peak_") else mine + theirs)


class SimCounters(Counters):
    """Event-loop totals over every engine of the process."""

    __slots__ = (
        "events_popped",     # host-heap events dispatched (cancelled pops excluded)
        "events_coalesced",  # per-wave events the coalescing fast path never scheduled
        "events_cancelled",  # lazily-deleted entries dropped from a heap
        # Pops executed inside a captured-graph replay engine
        # (:class:`repro.dataplane.graph.GraphEngine`): the same simulated
        # events the eager path pops, run on a private heap behind one
        # host-visible graph-launch event.
        "events_graphed",
        "peak_heap",         # high-water mark of any one pending-event heap
    )


#: Module-level accumulator (see :class:`Counters`).
STATS = SimCounters()


class Engine:
    """Owns simulated time and the pending-event heap.

    Two optional observers ride the one pop loop, each behind one
    ``is None`` test: an attached bus (``obs``) and a step log
    (``steps``), the list of raw popped heap keys a shard hashes once
    per window.  Either one makes :func:`collapsible` false.
    """

    __slots__ = (
        "_now", "_heap", "_seq", "_crashed",
        "obs", "steps", "t_busy",
        "events_popped", "events_cancelled", "peak_heap",
        "shard_id", "__weakref__",
    )

    #: The :data:`STATS` field this engine's pops are added to.
    STATS_POPPED_FIELD = "events_popped"

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._crashed: Optional[ProcessFailed] = None
        #: Attached instrumentation bus, or None — the fast path.  Only
        #: :meth:`repro.obs.bus.Bus.attach` populates it, and only while
        #: the bus has subscribers, so every hook is one ``is None`` test.
        self.obs: Optional[Bus] = None
        #: Optional step log: when a list, every popped event's raw
        #: ``(time, priority, seq)`` heap key is appended to it, in pop
        #: order.  The key *is* the heap tie-break key — shard step
        #: digests and the determinism regression tests hash it.
        self.steps: Optional[List[Tuple[float, int, int]]] = None
        #: Time of the last event actually processed.  Unlike ``now`` it is
        #: never clamped forward to a run-horizon, so a windowed (sharded)
        #: run can report true completion times.
        self.t_busy: float = 0.0
        #: Events popped and dispatched (cancelled pops excluded).
        self.events_popped: int = 0
        #: Lazily-deleted entries skipped on pop (Event.cancel).
        self.events_cancelled: int = 0
        #: High-water mark of the pending-event heap.
        self.peak_heap: int = 0
        #: Set by :class:`repro.shard.Shard` — obs spans emitted from this
        #: engine carry the shard id as actor provenance.  None = unsharded.
        self.shard_id: Optional[int] = None
        bus = current().bus
        if bus is not None:
            bus.attach(self)

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Event:
        """An event firing at *absolute* simulated time ``time`` (>= now).

        The coalescing layer folds per-wave delays into absolute wake
        times using the same left-to-right float additions the exact
        per-wave loop performs; scheduling at that absolute time — rather
        than ``timeout(t_end - now)``, which re-rounds — keeps every wake
        timestamp bit-identical to the exact path's.
        """
        if not (time >= self._now):  # also rejects NaN
            raise ValueError(f"timeout_at in the past: {time} < {self._now}")
        ev = Event(self)
        ev._triggered = True
        ev._value = value
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, 1, self._seq, ev))  # PRIORITY_NORMAL
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return ev

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Spawn ``gen`` as a process starting at the current time."""
        return Process(self, gen, name=name)

    # -- scheduling internals ---------------------------------------------------
    def _schedule_event(self, ev: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, priority, self._seq, ev))
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)

    def _body_failed(self, ev: Event, exc: BaseException) -> None:
        """A process, chain or transfer raised: fail its waiters, or else
        settle it failed and make :meth:`run` raise :class:`ProcessFailed`."""
        if ev.callbacks:
            ev.fail(exc)
            return
        ev._triggered = ev._processed = True
        ev._ok, ev._value, ev.callbacks = False, exc, None
        if self._crashed is None:
            self._crashed = ProcessFailed(ev, exc)

    # -- main loop ------------------------------------------------------------
    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` (an Event, a time, or None for exhaustion).

        Returns the event's value when ``until`` is an Event.  Raises
        :class:`~repro.sim.process.ProcessFailed` if an unwaited process
        crashed, or the original exception if ``until`` itself failed.

        One pop loop serves all three modes: it stops when the until-event
        has fired (``done``), the heap is empty, or the next event lies past
        ``horizon`` (``+inf`` unless ``until`` is a time).
        """
        horizon = _INF
        done: Optional[List[Event]] = None
        if isinstance(until, Event):
            done = []
            waiter = done.append
            until.add_callback(waiter)
        elif until is not None:
            horizon = float(until)
            if not (horizon >= self._now):  # also rejects NaN
                raise ValueError(f"cannot run to the past: {horizon} < {self._now}")
        heap = self._heap
        pop = heapq.heappop
        steps, obs = self.steps, self.obs
        log = None if steps is None else steps.append
        # Instants this run's pops emit take this engine's clock: on its own
        # bus, or on the run's when it was built before that bus was set.
        clock = obs if obs is not None else _run._RUN.bus
        if clock is not None:
            outer, clock.running = clock.running, self
        popped = cancelled = 0
        try:
            while not done and heap and heap[0][0] <= horizon:
                time, prio, seq, ev = pop(heap)
                if ev._cancelled:
                    cancelled += 1
                    continue
                self._now = time
                popped += 1
                if log is not None:
                    log((time, prio, seq))
                if obs is not None:
                    obs.instant("engine", "step", None, t=time, prio=prio, seq=seq)
                ev._run_callbacks()
                if self._crashed is not None:
                    crashed, self._crashed = self._crashed, None
                    raise crashed
            if done is not None and not done:
                raise EmptySchedule(
                    f"no more events at t={self._now}; target event never fired"
                )
        finally:
            if clock is not None:
                clock.running = outer
            self.events_popped += popped
            self.events_cancelled += cancelled
            if popped:
                self.t_busy = self._now
            field = self.STATS_POPPED_FIELD
            setattr(STATS, field, getattr(STATS, field) + popped)
            STATS.events_cancelled += cancelled
            if self.peak_heap > STATS.peak_heap:
                STATS.peak_heap = self.peak_heap
            # A propagating exception must not leave our waiter registered:
            # re-waiting the same event would then observe duplicate appends.
            if done is not None and not done and until.callbacks is not None:
                until.callbacks.remove(waiter)
        if done is None:
            if until is not None:
                self._now = horizon
            return None
        if until.ok:
            return until.value
        exc = until.value
        raise exc if isinstance(exc, BaseException) else RuntimeError(repr(exc))

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or +inf when idle.

        Lazily-deleted (cancelled) entries are dropped from the heap front
        here, so they are never visible to callers.
        """
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
            self.events_cancelled += 1
            STATS.events_cancelled += 1
        return heap[0][0] if heap else _INF

    def close(self) -> None:
        """Drop every pending event.

        The heap is what keeps a finished simulation's parked processes
        (and everything their frames hold) reachable; its owner calls this
        once nothing will run on the engine again.  Time and counters stay
        readable.
        """
        self._heap.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.9f} pending={len(self._heap)}>"


def collapsible(engine: Optional[Engine] = None) -> bool:
    """True when fast paths may collapse host pops (DESIGN.md §11, §16).

    Wave coalescing and graph replay remove pops that have *no observable
    effect*, so they are only legal while nothing can observe individual
    pops: no run bus (whose presence arms the sanitizer's record hooks
    even before a subscriber appears) and, for ``engine``, no attached bus
    and no step log (``engine.steps``).  Observation is the only switch: a
    run scope with an empty bus selects the exact reference path
    everywhere.  A shard's own step log is attached after the shard has
    asked, so it does not count (see :class:`repro.shard.Shard`).
    """
    return current().bus is None and (
        engine is None or (engine.obs is None and engine.steps is None)
    )
