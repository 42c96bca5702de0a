"""Trace recording: the sanitizer's view of a running simulation.

A :class:`Recorder` collects a flat, deterministic list of
:class:`TraceEvent` — accesses, sync edges, and semantic marks — from
instrumented sites across the simulator.  Recording is **opt-in**: every
hook is a no-op unless the run has an obs bus (see
:class:`repro.san.sanitizer.Sanitizer` and :mod:`repro.sim.run`), so the
uninstrumented hot path costs one ``is None`` test.

Identity model:

* **Actors** are tuples naming a simulated execution context: a GPU block
  ``("block", "gpu0", "vadd", 3)``, a kernel's bulk wave context
  ``("kernel", "gpu0", "jacobi_p")``, a stream worker ``("stream",
  "gpu0.s0")``, a rank's host program ``("host", 0)``, or a rank's MPI
  progression engine ``("pe", 0)``.
* **Allocations** are base NumPy arrays; views map to ``(alloc, lo, hi)``
  byte ranges via ``np.byte_bounds`` so overlap checks see through
  ``Buffer.view``/``partition`` aliasing exactly like device pointers.
* **Sync objects** are tuples keying release/acquire pairs (host-signal
  counters, arrived flags, kernel launch/join, stream drains).

Time comes from the engines themselves: :class:`repro.sim.engine.Engine`
announces itself to the instrumentation bus at construction, the bus calls
``Recorder.on_attach``, and the recorder reads ``now`` from the most
recent engine (simulations run one at a time).

The module-level hooks below publish onto the run's obs bus as
``cat="san"`` instants carrying the raw call arguments; :class:`Recorder`
is a bus *subscriber* that rebuilds the exact pre-bus :class:`TraceEvent`
stream from them (its own ``seq`` counter, its own clock), so sanitizer
verdicts and trace bytes are unchanged.  The sanitizer also makes its
recorder the run's ``recorder``, which answers the synchronous identity
queries (:func:`ident`) the protocol layers make while tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.run import current
from repro.units import fmt_time

try:  # numpy >= 2.0
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy 1.x
    _byte_bounds = np.byte_bounds

Actor = Tuple[Any, ...]
SyncObj = Tuple[Any, ...]

#: Event kinds a recorder emits.
ACCESS = "access"
ACQUIRE = "acq"
RELEASE = "rel"
MARK = "mark"

#: Bus category the hooks publish under (and the Recorder subscribes to).
CAT = "san"


def fmt_actor(actor: Optional[Actor]) -> str:
    """Human-readable actor, e.g. ``block(gpu0,vadd,b3)``."""
    if actor is None:
        return "transport"
    head, *rest = actor
    return f"{head}({','.join(str(r) for r in rest)})" if rest else str(head)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence, totally ordered by ``(time, seq)``."""

    time: float
    seq: int
    kind: str                       # ACCESS / ACQUIRE / RELEASE / MARK
    actor: Optional[Actor]          # None: anonymous transport copy
    obj: Optional[SyncObj] = None   # sync object (acq/rel)
    alloc: int = -1                 # allocation index (access)
    lo: int = 0                     # byte range within the allocation
    hi: int = 0
    write: bool = False
    note: str = ""                  # mark kind, or access annotation
    info: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.info:
            if k == key:
                return v
        return default

    def render(self) -> str:
        parts = [f"t={fmt_time(self.time)}", f"#{self.seq}", self.kind]
        if self.kind == ACCESS:
            rw = "W" if self.write else "R"
            parts.append(f"{rw} alloc{self.alloc}[{self.lo}:{self.hi})")
        if self.obj is not None:
            parts.append(f"obj={self.obj[0]}")
        parts.append(f"actor={fmt_actor(self.actor)}")
        if self.note:
            parts.append(self.note)
        parts += [f"{k}={v}" for k, v in self.info]
        return " ".join(parts)


@dataclass
class AllocInfo:
    """Registry entry for one base allocation seen by the recorder."""

    index: int
    label: str
    space: str                      # MemSpace.value, or "?" for pre-existing
    gpu: Optional[int]
    nbytes: int
    zero_filled: bool               # allocated with fill=None (calloc-style)
    preexisting: bool               # first seen via an access, not an alloc
    virtual: bool = False           # zero-stride geometry-only buffer
    base: Any = field(default=None, repr=False)  # strong ref, keeps ids stable


class Recorder:
    """Collects the trace for one sanitized window."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.allocs: Dict[int, AllocInfo] = {}      # index -> info
        self._alloc_by_id: Dict[int, int] = {}      # id(base array) -> index
        self._seq = 0
        self._engines: List[Any] = []
        self._idents: Dict[int, int] = {}           # id(obj) -> stable token
        self._ident_refs: List[Any] = []            # keep ids from being reused

    def ident(self, obj: Any) -> int:
        """Stable per-recorder token for ``obj`` (first-seen order).

        Used instead of raw ``id()`` in trace marks so identical runs
        produce byte-identical traces (the determinism contract).
        """
        token = self._idents.get(id(obj))
        if token is None:
            token = len(self._ident_refs)
            self._idents[id(obj)] = token
            self._ident_refs.append(obj)
        return token

    # -- time ---------------------------------------------------------------
    def note_engine(self, engine: Any) -> None:
        self._engines.append(engine)

    #: Bus-subscriber attach hook: track the engine's clock.
    on_attach = note_engine

    @property
    def now(self) -> float:
        return self._engines[-1].now if self._engines else 0.0

    # -- allocation registry --------------------------------------------------
    def _register(self, buf: Any, zero_filled: bool, preexisting: bool) -> AllocInfo:
        arr = buf.data
        base = arr
        while base.base is not None:
            base = base.base
        idx = self._alloc_by_id.get(id(base))
        if idx is not None:
            return self.allocs[idx]
        idx = len(self.allocs)
        info = AllocInfo(
            index=idx,
            label=buf.label,
            space=getattr(buf.space, "value", "?"),
            gpu=buf.gpu,
            nbytes=int(base.nbytes),
            zero_filled=zero_filled,
            preexisting=preexisting,
            virtual=0 in arr.strides,
            base=base,
        )
        self._alloc_by_id[id(base)] = idx
        self.allocs[idx] = info
        return info

    def note_alloc(self, buf: Any, zero_filled: bool) -> None:
        """A Buffer was allocated inside the sanitized window."""
        self._register(buf, zero_filled=zero_filled, preexisting=False)

    def range_of(self, buf: Any) -> Tuple[int, int, int]:
        """``(alloc index, lo, hi)`` byte range of a Buffer (view)."""
        info = self._register(buf, zero_filled=True, preexisting=True)
        arr = buf.data
        base = arr
        while base.base is not None:
            base = base.base
        lo_a, hi_a = _byte_bounds(arr)
        lo_b, _hi_b = _byte_bounds(base)
        return info.index, int(lo_a - lo_b), int(hi_a - lo_b)

    # -- event emission ----------------------------------------------------------
    def _emit(self, **kw: Any) -> None:
        self._seq += 1
        self.events.append(TraceEvent(time=self.now, seq=self._seq, **kw))

    def access(
        self, actor: Optional[Actor], buf: Any, write: bool, note: str = ""
    ) -> None:
        alloc, lo, hi = self.range_of(buf)
        if self.allocs[alloc].virtual:
            return  # geometry-only payload: aliasing is meaningless
        self._emit(
            kind=ACCESS, actor=actor, alloc=alloc, lo=lo, hi=hi, write=write, note=note
        )

    def acquire(self, actor: Actor, obj: SyncObj) -> None:
        self._emit(kind=ACQUIRE, actor=actor, obj=obj)

    def release(self, actor: Actor, obj: SyncObj) -> None:
        self._emit(kind=RELEASE, actor=actor, obj=obj)

    def mark(self, note: str, actor: Optional[Actor] = None, **info: Any) -> None:
        self._emit(kind=MARK, actor=actor, note=note, info=tuple(sorted(info.items())))

    # -- bus subscription ----------------------------------------------------
    def on_event(self, ev: Any) -> None:
        """Consume one ``cat="san"`` bus event (ignore everything else).

        The payload carries the raw hook arguments; re-emitting through the
        methods above reproduces the pre-bus trace byte-for-byte.
        """
        if ev.cat != CAT:
            return
        name = ev.name
        if name == ACCESS:
            self.access(ev.actor, ev.get("buf"), ev.get("write"), ev.get("note", ""))
        elif name == ACQUIRE:
            self.acquire(ev.actor, ev.get("obj"))
        elif name == RELEASE:
            self.release(ev.actor, ev.get("obj"))
        elif name == MARK:
            self._emit(
                kind=MARK, actor=ev.actor,
                note=ev.get("note", ""), info=ev.get("info", ()),
            )
        elif name == "alloc":
            self.note_alloc(ev.get("buf"), ev.get("zero_filled"))
        elif name == "channel":
            alloc, _lo, _hi = self.range_of(ev.get("buf"))
            info = dict(ev.get("info", ()))
            info["alloc"] = alloc
            self._emit(
                kind=MARK, actor=None,
                note=ev.get("note", ""), info=tuple(sorted(info.items())),
            )

    # -- serialization (determinism fixture) ------------------------------------
    def trace_bytes(self) -> bytes:
        return "\n".join(ev.render() for ev in self.events).encode()


# --------------------------------------------------------------------------
# module-level hook surface (what instrumented code calls)
#
# The hooks publish ``cat="san"`` events onto the run's obs bus; every
# subscriber sees them (the profiler's timeline shows pready marks), and a
# subscribed Recorder rebuilds its TraceEvent stream from them.  The gate
# is one ``is None`` test on the run's bus.
# --------------------------------------------------------------------------


def note_alloc(buf: Any, zero_filled: bool) -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, "alloc", None, buf=buf, zero_filled=zero_filled)


def access(actor: Optional[Actor], buf: Any, write: bool, note: str = "") -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, ACCESS, actor, buf=buf, write=write, note=note)


def acquire(actor: Actor, obj: SyncObj) -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, ACQUIRE, actor, obj=obj)


def release(actor: Actor, obj: SyncObj) -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, RELEASE, actor, obj=obj)


def mark(note: str, actor: Optional[Actor] = None, **info: Any) -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, MARK, actor, note=note, info=tuple(sorted(info.items())))


def channel(note: str, buf: Any, **info: Any) -> None:
    """Mark channel geometry: the Recorder resolves ``buf`` to its alloc."""
    bus = current().bus
    if bus is not None:
        bus.instant(
            CAT, "channel", None,
            buf=buf, note=note, info=tuple(sorted(info.items())),
        )


def ident(obj: Any) -> int:
    """Stable trace token for ``obj`` (0 when no sanitizer is active)."""
    rec = current().recorder
    return rec.ident(obj) if rec is not None else 0


def guard(check: str, actor: Optional[Actor], msg: str) -> None:
    """A runtime guard is about to raise: preserve it as a finding source."""
    mark("guard", actor=actor, check=check, msg=msg)
