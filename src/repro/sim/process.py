"""Generator-coroutine processes, and process bodies as slotted events.

A process wraps a generator. Each ``yield`` hands the engine something to
wait for (an :class:`~repro.sim.events.Event`, another :class:`Process`, a
bare number meaning a sleep, or ``None`` meaning "resume immediately but
after already-scheduled same-time events").  The value of the awaited event
is sent back into the generator; failures, bad yields included, are thrown
into it.  A sleeper is its own ``(now + delay, PRIORITY_NORMAL, seq)`` heap
entry: the key a ``Timeout`` would take, without allocating one.
:class:`Delayed`, :class:`Chain` and :class:`Holding` are bodies without
a generator that pop exactly like the generator bodies they stand for.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.sim.events import Event, Timeout, PRIORITY_NORMAL, PRIORITY_URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class ProcessFailed(Exception):
    """Raised by Engine.run when an unhandled exception escaped a process, chain or transfer."""

    def __init__(self, process: "Process", exc: BaseException) -> None:
        super().__init__(f"{process!r} failed: {exc!r}")
        self.process = process
        self.exc = exc


class Process(Event):
    """A running coroutine; is itself an Event that fires on termination.

    The event value is the generator's return value (``StopIteration``
    payload); if the generator raises, the process event *fails* with that
    exception, which then propagates to any process waiting on it.
    """

    __slots__ = ("gen", "name", "_target", "_started")

    def __init__(self, engine: "Engine", gen: Generator, name: Optional[str] = None) -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(engine)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None  # event we are currently waiting on
        self._started = False
        # Boot as our own heap entry, urgent at the current time so spawn
        # order is preserved; the first pop starts the body.
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now, PRIORITY_URGENT, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)

    # -- lifecycle ------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def kill(self) -> None:
        """Terminate the process immediately without resuming it.

        Closes the generator synchronously and succeeds the process event
        with ``None``.  Used by shard teardown: when a window aborts,
        resident processes must not run again against half-merged state.
        """
        if self.triggered:
            return
        self._detach()
        self.gen.close()
        self.succeed(None, priority=PRIORITY_NORMAL)

    def _detach(self) -> None:
        """Stop waiting on whatever we were waiting on."""
        target, self._target = self._target, None
        if target is self:  # asleep: same key, cancelled event (an O(heap) scan, rarely paid)
            heap = self.engine._heap
            for i, entry in enumerate(heap):
                if entry[3] is self:
                    heap[i] = (entry[0], entry[1], entry[2], _STALE)
                    break
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # A timed-out wait nobody else observes is dead weight on
            # the heap; lazy-delete it so the engine skips the pop.
            if not target.callbacks and isinstance(target, Timeout):
                target.cancel()

    # -- engine internals -------------------------------------------------------
    def _run_callbacks(self) -> None:
        if not self._started:  # boot
            self._started = True
            self._advance(True, None)
        elif self._triggered:  # termination: wake our waiters
            Event._run_callbacks(self)
        else:  # our own sleep entry: wake
            self._target = None
            self._advance(True, None)

    def _resume(self, ev: Event) -> None:
        self._target = None
        self._advance(ev._ok, ev._value)

    def _advance(self, ok: bool, value: Any) -> None:
        """Send ``value`` (or throw it, when not ``ok``) and park on the yield.

        The whole wake path in one call.  ``self._resume`` is built afresh on
        every park, never cached: a process<->method cycle would leave a
        finished process to the cyclic collector instead of refcounting.
        """
        if self._triggered:
            return
        engine = self.engine
        while True:
            try:
                target = self.gen.send(value) if ok else self.gen.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                engine._body_failed(self, exc)
                return
            if isinstance(target, Event) and target is not self:
                self._target = target
                if target.callbacks is None:  # already processed: resume at once
                    self._resume(target)
                else:
                    target.callbacks.append(self._resume)
                return
            if target is None:
                when = engine._now
            elif isinstance(target, (int, float)) and target >= 0:  # False for NaN
                when = engine._now + target
            else:  # thrown in: the body fails as on any error it raises
                bad = ValueError if isinstance(target, (int, float)) else TypeError
                ok, value = False, bad(f"process {self.name!r} cannot wait on {target!r}")
                continue
            # Sleep as our own heap entry: Engine._schedule_event, inlined.
            self._target = self
            engine._seq = seq = engine._seq + 1
            heap = engine._heap
            heappush(heap, (when, PRIORITY_NORMAL, seq, self))
            if len(heap) > engine.peak_heap:
                engine.peak_heap = len(heap)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


#: A killed sleeper's heap entry: shared, pre-cancelled.
_STALE = Event(None)  # type: ignore[arg-type]
_STALE._triggered = _STALE._cancelled = True


class Delayed(Event):
    """``fn()`` after ``delay``: pops exactly like the process body
    ``yield delay; return fn()`` (an URGENT boot at ``now``, a NORMAL wake
    at ``now + delay`` that calls ``fn``, then the termination) and
    succeeds with ``fn``'s value, or fails as that body would.  ``fn`` must
    not hold the chain: no cycle, so a fired chain dies by refcounting.
    """

    __slots__ = ("fn", "delay")

    def __init__(self, engine: "Engine", delay: float, fn: Callable[[], Any]) -> None:
        if not (delay >= 0):  # also rejects NaN
            raise ValueError(f"negative or NaN delay: {delay}")
        Event.__init__(self, engine)
        self.fn: Optional[Callable[[], Any]] = fn
        self.delay: Optional[float] = delay
        engine._schedule_event(self, PRIORITY_URGENT)

    def _run_callbacks(self) -> None:
        fn, delay = self.fn, self.delay
        if delay is not None:  # boot: sleep
            self.delay = None
            self.engine._schedule_event(self, PRIORITY_NORMAL, delay)
        elif fn is None:  # finished: wake our waiters
            Event._run_callbacks(self)
        else:
            self.fn = None  # before succeed, or the next pop re-runs fn
            try:
                self.succeed(fn())
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                self.engine._body_failed(self, exc)


class Chain(Event):
    """A multi-stage process body as one slotted event.

    ``_step(stage, ev)`` runs on each pop of its own entry (``ev`` None) or
    callback of an awaited event; ``stage`` counts the calls from 0 and
    setting ``_stage`` skips ahead.  It boots like a spawned process, and
    ``_sleep(d)``, ``_acquire(res)``, ``ev.callbacks.append(self._run_callbacks)``
    and ``succeed(v)`` take the keys of ``yield d``, ``yield res.acquire()``,
    ``yield ev`` and ``return v``.  A failed wait raises in it; a raise runs
    ``_unwind`` (the body's ``finally``) and goes to ``Engine._body_failed``.
    """

    __slots__ = ("_stage",)

    def __init__(self, engine: "Engine") -> None:
        # Event.__init__ and the boot push, inlined: a chain replaces a spawn.
        self.engine = engine
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self._triggered = self._processed = self._cancelled = False
        self._stage = 0
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now, PRIORITY_URGENT, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)

    def _run_callbacks(self, ev: Optional[Event] = None) -> None:
        if self._triggered:  # finished: wake our waiters
            return Event._run_callbacks(self)
        stage = self._stage
        self._stage = stage + 1
        try:
            if ev is not None and not ev._ok:
                raise ev._value
            self._step(stage, ev)
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._unwind()
            self.engine._body_failed(self, exc)

    def _unwind(self) -> None:
        """What a raise must give back (nothing by default)."""

    def _sleep(self, delay: float) -> None:
        if not (delay >= 0):  # also rejects NaN: it fails the body, as a bad yield
            raise ValueError(f"chain {self!r} cannot sleep {delay!r}")
        engine = self.engine  # Engine._schedule_event, inlined: the chains' hot path
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now + delay, PRIORITY_NORMAL, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)

    def _acquire(self, resource) -> None:
        if resource._in_use < resource.capacity:  # the key acquire()'s event takes
            resource._in_use += 1
            self._sleep(0.0)
        else:
            resource.acquire().callbacks.append(self._run_callbacks)


class Holding(Chain):
    """Hold ``resource`` across a sleep and the event ``start()`` returns.

    The body: acquire; ``try``: sleep ``delay``, wait on ``start()``;
    ``finally``: emit ``span``, ``(cat, name, actor, fields)``, from the
    grant on when observed, and release; return the event's value.
    """

    __slots__ = ("resource", "delay", "start", "span", "_t0")

    def __init__(self, engine: "Engine", resource, delay: float,
                 start: Callable[[], Event], span: tuple) -> None:
        self.resource, self.delay, self.start, self.span = resource, delay, start, span
        Chain.__init__(self, engine)

    def _step(self, stage: int, ev: Optional[Event]) -> None:
        if stage == 0:
            self._acquire(self.resource)
        elif stage == 1:  # granted
            self._t0 = self.engine._now
            self._sleep(self.delay)
        elif stage == 2:  # held from here on: a raise in start() releases
            start, self.start = self.start, None
            ev = start()
            if ev.callbacks is None:  # already processed: resume at once
                self._run_callbacks(ev)
            else:
                ev.callbacks.append(self._run_callbacks)
        else:
            self._unwind()
            self.succeed(ev._value)

    def _unwind(self) -> None:  # only a held chain can raise (a bad delay, start())
        obs = self.engine.obs
        if obs is not None:
            cat, name, actor, fields = self.span
            obs.span(cat, name, actor, self._t0, self.engine._now, **fields)
        self.resource.release()
