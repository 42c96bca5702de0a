"""The instrumentation bus: one tuple event, synchronous fan-out, no overhead
when nobody listens.

Event model
-----------

An :class:`ObsEvent` is a named tuple of one of three kinds:

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
scheme (:func:`repro.san.record.fmt_actor`), and a *payload*: the keyword
dict the site passed, as passed.  Its keys are sorted once, at export
(:func:`repro.obs.chrome.chrome_trace`), and its objects are labelled
only by a subscriber that keeps events (:func:`labelled`).  ``seq`` totally
orders events within one bus.

Fast-path contract
------------------

``Engine.obs`` is ``None`` unless a bus with at least one subscriber is
attached, so every instrumentation site reduces to::

    obs = engine.obs
    if obs is not None:
        obs.span("link", self.name, None, t0, engine.now, nbytes=n)

A sanitizer hook site gates on the run's bus instead, before it builds
the hook's arguments (the rule is stated in :mod:`repro.san.record`).

Buses learn about engines two ways: explicitly (``bus.attach(engine)``)
or through the run — every :class:`~repro.sim.engine.Engine` built inside
``with run_scope(bus=bus)`` (:mod:`repro.sim.run`) attaches itself, which
is how ``python -m repro profile <script>`` observes Worlds it never sees
built.

Clock
-----

An instant or counter published without ``t`` is stamped with
:attr:`Bus.now`: the clock of the engine whose ``run`` is innermost
(``Engine.run`` sets :attr:`Bus.running` on its own bus, or on the run's
bus when it has none), or, outside every run, of the engine attached last.

Subscriber contract
-------------------

A subscriber is any object with ``on_event(event: ObsEvent) -> None``;
dispatch is synchronous and in ``seq`` order, and every subscriber sees
the same event object.  Subscribers must not mutate simulation state or
the event — determinism requires the timeline to be identical with and
without observers — and one that keeps events keeps them labelled.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: Event kinds.
SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"

Actor = Tuple[Any, ...]

#: Payload value types a kept event holds as they are.  ``_EXACT`` tests
#: the common case, exact types, faster than ``isinstance`` does.
_PLAIN = (type(None), bool, int, float, str)
_EXACT = frozenset(_PLAIN)


class ObsEvent(NamedTuple):
    """One published occurrence, totally ordered by ``seq`` within a bus."""

    kind: str                       # SPAN / INSTANT / COUNTER
    cat: str                        # layer category ("kernel", "link", ...)
    name: str                       # event name within the category
    actor: Optional[Actor]          # san.record-style actor tuple, or None
    t0: float                       # start time (== t1 for instants)
    t1: float                       # end time
    seq: int
    payload: Dict[str, Any]         # the site's keyword arguments

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


def labelled(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The one labelling rule, for a payload that outlives its event.

    Scalars and flat tuples of scalars stay as they are; any other object
    (a Buffer, a nested tuple) becomes ``"<its label>"``, or
    ``"<TypeName>"`` when it has none, so a kept event cannot pin a Buffer
    and its array.  Returns ``payload`` itself when nothing needs a label.
    """
    out = payload
    for key, value in payload.items():
        if type(value) in _EXACT or isinstance(value, _PLAIN) or (
            isinstance(value, tuple) and all(isinstance(v, _PLAIN) for v in value)
        ):
            continue
        if out is payload:
            out = dict(payload)
        name = getattr(value, "label", None)
        out[key] = f"<{name if isinstance(name, str) and name else type(value).__name__}>"
    return out


class Bus:
    """Synchronous publish/subscribe hub for :class:`ObsEvent`."""

    def __init__(self) -> None:
        self.subscribers: List[Any] = []
        self._engines: List[Any] = []
        #: The engine whose ``run`` is innermost, or None between runs.
        self.running: Any = None
        self._seq = 0

    # -- engines ------------------------------------------------------------
    @property
    def now(self) -> float:
        """The instant clock (see the module docstring)."""
        engine = self.running or (self._engines[-1] if self._engines else None)
        return 0.0 if engine is None else engine.now

    @property
    def engines(self) -> Tuple[Any, ...]:
        return tuple(self._engines)

    def attach(self, engine: Any) -> None:
        """Observe ``engine``.  Its ``obs`` slot is only populated while the
        bus has subscribers, preserving the idle fast path."""
        if engine not in self._engines:
            self._engines.append(engine)
            if self.subscribers:
                engine.obs = self

    # -- subscribers ----------------------------------------------------------
    def subscribe(self, sub: Any) -> None:
        if sub in self.subscribers:
            raise ValueError(f"{sub!r} is already subscribed")
        self.subscribers.append(sub)
        for engine in self._engines:
            engine.obs = self

    def unsubscribe(self, sub: Any) -> None:
        self.subscribers.remove(sub)
        if not self.subscribers:
            for engine in self._engines:
                engine.obs = None

    # -- emission -------------------------------------------------------------
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
        self._seq += 1
        # tuple.__new__ skips the generated ``ObsEvent.__new__`` frame.
        ev = tuple.__new__(ObsEvent, (SPAN, cat, name, actor, t0, t1, self._seq, payload))
        for sub in self.subscribers:
            sub.on_event(ev)

    def instant(
        self,
        cat: str,
        name: str,
        actor: Optional[Actor] = None,
        t: Optional[float] = None,
        **payload: Any,
    ) -> None:
        """Publish a point event (``t`` defaults to :attr:`now`)."""
        at = self.now if t is None else t
        self._seq += 1
        ev = tuple.__new__(ObsEvent, (INSTANT, cat, name, actor, at, at, self._seq, payload))
        for sub in self.subscribers:
            sub.on_event(ev)

    def counter(
        self,
        cat: str,
        name: str,
        t: Optional[float] = None,
        **samples: Any,
    ) -> None:
        """Publish counter samples (one numeric series per payload key)."""
        at = self.now if t is None else t
        self._seq += 1
        ev = tuple.__new__(ObsEvent, (COUNTER, cat, name, None, at, at, self._seq, samples))
        for sub in self.subscribers:
            sub.on_event(ev)
