"""The instrumentation bus: typed events, synchronous fan-out, no overhead
when nobody listens.

Event model
-----------

An :class:`ObsEvent` is one of three kinds:

``SPAN``
    An interval ``[t0, t1]`` of occupancy or work: a kernel execution, a
    stream op, a link carrying bytes, a progression-engine dispatch.
``INSTANT``
    A point occurrence: a kernel launch API call, an AM arrival, a
    sanitizer-semantic mark.
``COUNTER``
    A sampled numeric series (e.g. stream queue depth).

Events carry a *category* (``"kernel"``, ``"link"``, ``"pe"``, ``"san"``,
…), a *name*, an optional *actor* tuple using the sanitizer's naming
scheme (:func:`repro.san.record.fmt_actor`), and a sorted key/value
payload.  ``seq`` totally orders events within one bus.

Fast-path contract
------------------

``Engine.obs`` is ``None`` unless a bus with at least one subscriber is
attached, so every instrumentation site reduces to::

    obs = engine.obs
    if obs is not None:
        obs.span("link", self.name, None, t0, engine.now, nbytes=n)

Buses learn about engines two ways: explicitly (``bus.attach(engine)``)
or through the run — every :class:`~repro.sim.engine.Engine` built inside
``with run_scope(bus=bus)`` (:mod:`repro.sim.run`) attaches itself, which
is how ``python -m repro profile <script>`` observes Worlds it never sees
built.

Subscriber contract
-------------------

A subscriber is any object with ``on_event(event: ObsEvent) -> None``;
dispatch is synchronous and in ``seq`` order.  An optional
``on_attach(engine)`` is called once per engine the bus knows about (past
and future), letting subscribers track simulated clocks.  Subscribers
must not mutate simulation state — determinism requires the timeline to
be identical with and without observers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

#: Event kinds.
SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"

Actor = Tuple[Any, ...]


@dataclass(frozen=True)
class ObsEvent:
    """One published occurrence, totally ordered by ``seq`` within a bus."""

    kind: str                       # SPAN / INSTANT / COUNTER
    cat: str                        # layer category ("kernel", "link", ...)
    name: str                       # event name within the category
    actor: Optional[Actor]          # san.record-style actor tuple, or None
    t0: float                       # start time (== t1 for instants)
    t1: float                       # end time
    seq: int
    payload: Tuple[Tuple[str, Any], ...] = ()

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.payload:
            if k == key:
                return v
        return default

    def compact(self) -> "ObsEvent":
        """Copy with simulation objects in the payload degraded to short
        labels.  Retaining subscribers (profilers, exporters) must store
        compacted events: a raw payload can pin a Buffer — and its backing
        array — for the life of the collection."""
        if all(_is_scalar(v) for _k, v in self.payload):
            return self
        payload = tuple((k, _label(v)) for k, v in self.payload)
        return ObsEvent(
            self.kind, self.cat, self.name, self.actor,
            self.t0, self.t1, self.seq, payload,
        )


def _is_scalar(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    return isinstance(value, tuple) and all(
        v is None or isinstance(v, (bool, int, float, str)) for v in value
    )


def _label(value: Any) -> Any:
    if _is_scalar(value):
        return value
    label = getattr(value, "label", None)
    if isinstance(label, str) and label:
        return f"<{label}>"
    return f"<{type(value).__name__}>"


class Bus:
    """Synchronous publish/subscribe hub for :class:`ObsEvent`."""

    def __init__(self) -> None:
        self.subscribers: List[Any] = []
        self._engines: List[Any] = []
        self._seq = 0

    # -- engines ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Clock of the most recently attached engine (simulations run one
        at a time; matches ``Recorder.now``)."""
        return self._engines[-1].now if self._engines else 0.0

    @property
    def engines(self) -> Tuple[Any, ...]:
        return tuple(self._engines)

    def attach(self, engine: Any) -> None:
        """Observe ``engine``.  Its ``obs`` slot is only populated while the
        bus has subscribers, preserving the idle fast path."""
        if engine in self._engines:
            return
        self._engines.append(engine)
        if self.subscribers:
            engine.obs = self
        for sub in self.subscribers:
            on_attach = getattr(sub, "on_attach", None)
            if on_attach is not None:
                on_attach(engine)

    # -- subscribers ----------------------------------------------------------
    def subscribe(self, sub: Any) -> None:
        if sub in self.subscribers:
            raise ValueError(f"{sub!r} is already subscribed")
        self.subscribers.append(sub)
        on_attach = getattr(sub, "on_attach", None)
        for engine in self._engines:
            engine.obs = self
            if on_attach is not None:
                on_attach(engine)

    def unsubscribe(self, sub: Any) -> None:
        self.subscribers.remove(sub)
        if not self.subscribers:
            for engine in self._engines:
                engine.obs = None

    # -- emission -------------------------------------------------------------
    def _emit(
        self,
        kind: str,
        cat: str,
        name: str,
        actor: Optional[Actor],
        t0: float,
        t1: float,
        payload: Tuple[Tuple[str, Any], ...],
    ) -> None:
        self._seq += 1
        ev = ObsEvent(kind, cat, name, actor, t0, t1, self._seq, payload)
        for sub in self.subscribers:
            sub.on_event(ev)

    def span(
        self,
        cat: str,
        name: str,
        actor: Optional[Actor],
        t0: float,
        t1: float,
        **payload: Any,
    ) -> None:
        """Publish a completed interval ``[t0, t1]``."""
        self._emit(SPAN, cat, name, actor, t0, t1, tuple(sorted(payload.items())))

    def instant(
        self,
        cat: str,
        name: str,
        actor: Optional[Actor] = None,
        t: Optional[float] = None,
        **payload: Any,
    ) -> None:
        """Publish a point event (``t`` defaults to the bus clock)."""
        at = self.now if t is None else t
        self._emit(INSTANT, cat, name, actor, at, at, tuple(sorted(payload.items())))

    def counter(
        self,
        cat: str,
        name: str,
        t: Optional[float] = None,
        **samples: Any,
    ) -> None:
        """Publish counter samples (one numeric series per payload key)."""
        at = self.now if t is None else t
        self._emit(COUNTER, cat, name, None, at, at, tuple(sorted(samples.items())))
