"""Generator-coroutine processes.

A process wraps a generator. Each ``yield`` hands the engine something to
wait for (an :class:`~repro.sim.events.Event`, another :class:`Process`, a
bare number meaning a timeout, or ``None`` meaning "resume immediately but
after already-scheduled same-time events").  The value of the awaited event
is sent back into the generator; failures are thrown into it.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Timeout, PRIORITY_NORMAL, PRIORITY_URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessFailed(Exception):
    """Raised by Engine.run when an unhandled exception escaped a process or transfer."""

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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self._detach()
        wake = Event(self.engine)
        wake.add_callback(lambda ev: self._advance(False, Interrupt(cause)))
        wake.succeed(None, priority=PRIORITY_URGENT)

    def kill(self) -> None:
        """Terminate the process immediately without resuming it.

        Unlike :meth:`interrupt` — which throws into the generator at the
        current time and lets it unwind — ``kill`` closes the generator
        synchronously and succeeds the process event with ``None``.  Used
        by shard teardown: when a window aborts, resident processes must
        not run again against half-merged state.
        """
        if self.triggered:
            return
        self._detach()
        self.gen.close()
        self.succeed(None, priority=PRIORITY_NORMAL)

    def _detach(self) -> None:
        """Stop waiting on whatever we were waiting on."""
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
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
        if self._started:
            Event._run_callbacks(self)  # termination: wake our waiters
        else:
            self._started = True
            self._advance(True, None)

    def _resume(self, ev: Event) -> None:
        self._target = None
        self._advance(ev._ok, ev._value)

    def _advance(self, ok: bool, value: Any) -> None:
        """Send ``value`` (or throw it, when not ``ok``) and park on the yield.

        The whole wake path in one call.  The bound ``self._resume`` is
        built afresh on every park, never cached on the process: a cached
        one would be a process<->method cycle, and a finished process
        would wait for the cyclic collector instead of being freed by
        reference counting.
        """
        if self._triggered:
            return
        engine = self.engine
        try:
            target = self.gen.send(value) if ok else self.gen.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if self.callbacks:
                self.fail(exc)
            else:
                # Nobody is waiting on this process: surface the crash.
                engine._crash(self, exc)
            return
        if not isinstance(target, Event):
            # Coerced waits are anonymous and single-waiter, so they draw
            # from the engine's timeout free-list instead of allocating.
            if target is None:
                target = engine.pooled_timeout(0.0)
            elif isinstance(target, (int, float)):
                target = engine.pooled_timeout(float(target))
            else:
                raise TypeError(f"process {self.name!r} yielded unsupported {target!r}")
        elif target is self:
            raise RuntimeError(f"process {self.name!r} awaits itself")
        self._target = target
        if target.callbacks is None:  # already processed: resume at once
            self._resume(target)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
