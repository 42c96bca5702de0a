"""The discrete-event engine: a time-ordered heap of triggered events.

Time is a ``float`` in **seconds**.  Constants throughout the code base use
the helpers in :mod:`repro.units` (``us``, ``GiB`` …) to stay readable.

Determinism: heap entries are ``(time, priority, seq)``; ``seq`` is a
monotone counter so ties break by insertion order.  Nothing in the engine
consults wall-clock time or global randomness.

Wall-clock fast path (DESIGN.md §11): :meth:`Engine.run` is the only pop
loop.  It hoists the ``obs`` / ``on_step`` observers into locals before
the loop, so an unobserved pop costs two ``is None`` tests and no method
calls.  Observers must therefore be attached *before* ``run`` is entered;
nothing in the deterministic core attaches one mid-run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import Event, Timeout, _PooledTimeout
from repro.sim.process import Process, ProcessFailed
from repro.sim.run import current
from repro.obs import bus as obs_bus


_INF = float("inf")


class EmptySchedule(Exception):
    """run() exhausted all events before reaching the requested time."""


class SimStats:
    """Process-wide event-loop counters, aggregated across engines.

    Each :class:`Engine` folds its own counters into the module-level
    :data:`STATS` singleton when :meth:`Engine.run` exits, so harnesses
    (``python -m repro bench``, ``scripts/regenerate_results.py``) can
    total heap traffic over the many short-lived Worlds a sweep creates.
    """

    __slots__ = (
        "events_popped", "events_coalesced", "events_cancelled",
        "events_graphed", "peak_heap",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_popped = 0
        self.events_coalesced = 0
        self.events_cancelled = 0
        #: Pops executed inside a captured-graph replay engine
        #: (:class:`repro.dataplane.graph.GraphEngine`).  They are the same
        #: simulated events the eager path pops, but they run on a private
        #: heap behind one host-visible graph-launch event, so they are
        #: accounted separately from host ``events_popped``.
        self.events_graphed = 0
        self.peak_heap = 0

    def snapshot(self) -> dict:
        return {
            "events_popped": self.events_popped,
            "events_coalesced": self.events_coalesced,
            "events_cancelled": self.events_cancelled,
            "events_graphed": self.events_graphed,
            "peak_heap": self.peak_heap,
        }

    def absorb(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        The cluster driver absorbs each forked worker's snapshot, in
        ascending shard-block order, once the worker finishes; the sums
        do not depend on how shards were grouped onto workers.
        ``peak_heap`` merges by max: shard heaps coexist, they don't sum.
        """
        self.events_popped += snap["events_popped"]
        self.events_coalesced += snap["events_coalesced"]
        self.events_cancelled += snap["events_cancelled"]
        self.events_graphed += snap.get("events_graphed", 0)
        if snap["peak_heap"] > self.peak_heap:
            self.peak_heap = snap["peak_heap"]


#: Module-level accumulator (see :class:`SimStats`).
STATS = SimStats()


class Engine:
    """Owns simulated time and the pending-event heap."""

    __slots__ = (
        "_now", "_heap", "_seq", "_active_process", "_crashed",
        "obs", "on_step", "_timeout_pool", "t_busy",
        "events_popped", "events_coalesced", "events_cancelled", "peak_heap",
        "_flushed", "shard_id", "__weakref__",
    )

    #: The :data:`STATS` field this engine's pops are folded into.
    STATS_POPPED_FIELD = "events_popped"

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._crashed: Optional[ProcessFailed] = None
        #: Attached instrumentation bus, or None — the fast path.  Only
        #: :meth:`repro.obs.bus.Bus.attach` populates it, and only while
        #: the bus has subscribers, so every hook is one ``is None`` test.
        self.obs: Optional[obs_bus.Bus] = None
        #: Optional hook called as ``on_step(time, priority, seq)`` for every
        #: popped event, in pop order.  The argument triple *is* the heap
        #: tie-break key — the determinism regression test hashes it.
        self.on_step: Optional[Callable[[float, int, int], None]] = None
        #: Free-list of recyclable timeouts (see events._PooledTimeout).
        self._timeout_pool: List[_PooledTimeout] = []
        #: Time of the last event actually processed.  Unlike ``now`` it is
        #: never clamped forward to a run-horizon, so a windowed (sharded)
        #: run can report true completion times.
        self.t_busy: float = 0.0
        #: Events popped and dispatched (cancelled pops excluded).
        self.events_popped: int = 0
        #: Events the fast paths avoided scheduling altogether (e.g. waves
        #: collapsed by the coalesced-signalling layer).
        self.events_coalesced: int = 0
        #: Lazily-deleted entries skipped on pop (Event.cancel).
        self.events_cancelled: int = 0
        #: High-water mark of the pending-event heap.
        self.peak_heap: int = 0
        #: Set by :class:`repro.shard.Shard` — obs spans emitted from this
        #: engine carry the shard id as actor provenance.  None = unsharded.
        self.shard_id: Optional[int] = None
        self._flushed = [0, 0, 0]  # popped/coalesced/cancelled already in STATS
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
        if time < self._now:
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

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A timeout from the engine's free-list (engine-internal).

        Behaves exactly like :meth:`timeout` but the object is recycled
        once its callbacks ran; callers must not retain it past firing.
        Used by ``Process`` for coerced ``yield <number>`` waits — the
        allocation hot spot of the partition sweeps.
        """
        pool = self._timeout_pool
        if not pool:
            return _PooledTimeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        t = pool.pop()
        t.delay = delay
        t._triggered = True
        t._value = value
        self._schedule_event(t, 1, delay=delay)  # PRIORITY_NORMAL
        return t

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

    def _crash(self, process: Process, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = ProcessFailed(process, exc)

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
            if horizon < self._now:
                raise ValueError(f"cannot run to the past: {horizon} < {self._now}")
        heap = self._heap
        pop = heapq.heappop
        on_step, obs = self.on_step, self.obs
        popped = cancelled = 0
        try:
            while not done and heap and heap[0][0] <= horizon:
                time, prio, seq, ev = pop(heap)
                if ev._cancelled:
                    cancelled += 1
                    continue
                self._now = time
                popped += 1
                if on_step is not None:
                    on_step(time, prio, seq)
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
            self.events_popped += popped
            self.events_cancelled += cancelled
            if popped:
                self.t_busy = self._now
            self._flush_stats()
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
        return heap[0][0] if heap else _INF

    def close(self) -> None:
        """Drop every pending event and the timeout free-list.

        The heap is what keeps a finished simulation's parked processes
        (and everything their frames hold) reachable; its owner calls this
        once nothing will run on the engine again.  Time and counters stay
        readable.
        """
        self._heap.clear()
        self._timeout_pool.clear()

    def _flush_stats(self) -> None:
        flushed = self._flushed
        field = self.STATS_POPPED_FIELD
        setattr(STATS, field, getattr(STATS, field) + self.events_popped - flushed[0])
        STATS.events_coalesced += self.events_coalesced - flushed[1]
        STATS.events_cancelled += self.events_cancelled - flushed[2]
        if self.peak_heap > STATS.peak_heap:
            STATS.peak_heap = self.peak_heap
        flushed[0] = self.events_popped
        flushed[1] = self.events_coalesced
        flushed[2] = self.events_cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.9f} pending={len(self._heap)}>"


def collapsible(engine: Optional[Engine] = None) -> bool:
    """True when fast paths may collapse host pops (DESIGN.md §11, §16).

    Wave coalescing and graph replay remove pops that have *no observable
    effect*, so they are only legal while nothing can observe individual
    pops: no run bus (whose presence arms the sanitizer's record hooks
    even before a subscriber appears) and, for ``engine``, no attached bus
    and no ``on_step`` hook.  Observation is the only switch: a run scope
    with an empty bus selects the exact reference path everywhere.
    """
    return current().bus is None and (
        engine is None or (engine.obs is None and engine.on_step is None)
    )
