"""Trace recording: the sanitizer's view of a running simulation.

A :class:`Recorder` collects a flat, deterministic list of
:class:`TraceEvent` — accesses, sync edges, and semantic marks — from
instrumented sites across the simulator.  Recording is **opt-in**: it
needs a run with an obs bus (see :class:`repro.san.sanitizer.Sanitizer`
and :mod:`repro.sim.run`).  The rule for a hook site: it tests the run's
bus, ``_run._RUN.bus is not None`` (attribute loads, no call), before it
builds the hook's arguments.  So an unobserved run makes no call into this
module: no hook, no :func:`ident`, no argument tuple, no callback.  Each
hook tests the bus again, so a cold path (:func:`guard`) may call it bare.

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
  counters, arrived flags, kernel launch/join, stream drains): a tag,
  then names and numbers, or an object whose identity is the key.  The
  hooks publish such an object as a stable token (:func:`_keyed`), never
  as its address, so identical runs export identical bytes.

The module-level hooks below publish onto the run's obs bus as
``cat="san"`` instants carrying the raw call arguments (every subscriber
sees them: the profiler's timeline shows pready marks); :class:`Recorder`
is a bus *subscriber* that turns each into one :class:`TraceEvent`,
stamped with the instant's own time (the bus clock, see
:mod:`repro.obs.bus`) and numbered by its own ``seq`` counter.  The
sanitizer also makes its recorder the run's ``recorder``, which answers
the synchronous identity queries (:func:`ident`) the protocol layers make
while tracing.
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


class _Tokens:
    """Stable tokens for objects, in first-seen order.  Holding each object
    keeps its ``id()`` from being reused by a later one."""

    def __init__(self) -> None:
        self._by_id: Dict[int, int] = {}
        self._refs: List[Any] = []

    def __call__(self, obj: Any) -> int:
        token = self._by_id.get(id(obj))
        if token is None:
            token = self._by_id[id(obj)] = len(self._refs)
            self._refs.append(obj)
        return token


class Recorder:
    """Collects the trace for one sanitized window."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.allocs: Dict[int, AllocInfo] = {}      # index -> info
        self._alloc_by_id: Dict[int, int] = {}      # id(base array) -> index
        self._seq = 0
        #: Tokens for the objects marks name (:func:`ident`), and a separate
        #: set for the objects sync keys name (:func:`_keyed`), so that sync
        #: traffic does not renumber the mark tokens a trace prints.
        self.ident = _Tokens()
        self.sync_ident = _Tokens()

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

    # -- bus subscription ----------------------------------------------------
    def on_event(self, ev: Any) -> None:
        """Record one ``cat="san"`` bus event (ignore everything else)."""
        if ev.cat != CAT:
            return
        name, p, actor = ev.name, ev.payload, ev.actor
        if name == "alloc":
            self._register(p["buf"], zero_filled=p["zero_filled"], preexisting=False)
            return
        if name == ACCESS:
            alloc, lo, hi = self.range_of(p["buf"])
            if self.allocs[alloc].virtual:
                return  # geometry-only payload: aliasing is meaningless
            kw = dict(alloc=alloc, lo=lo, hi=hi, write=p["write"], note=p["note"])
        elif name in (ACQUIRE, RELEASE):
            kw = dict(obj=p["obj"])
        elif name == MARK:
            kw = dict(note=p["note"], info=p["info"])
        else:  # "channel": a mark naming the channel buffer's allocation
            info = dict(p["info"], alloc=self.range_of(p["buf"])[0])
            name, actor = MARK, None
            kw = dict(note=p["note"], info=tuple(sorted(info.items())))
        self._seq += 1
        self.events.append(TraceEvent(ev.t0, self._seq, name, actor, **kw))

    # -- serialization (determinism fixture) ------------------------------------
    def trace_bytes(self) -> bytes:
        return "\n".join(ev.render() for ev in self.events).encode()


# --------------------------------------------------------------------------
# module-level hook surface (what instrumented code calls, behind the gate
# the module docstring states)
# --------------------------------------------------------------------------


def note_alloc(buf: Any, zero_filled: bool) -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, "alloc", None, buf=buf, zero_filled=zero_filled)


def access(actor: Optional[Actor], buf: Any, write: bool, note: str = "") -> None:
    bus = current().bus
    if bus is not None:
        bus.instant(CAT, ACCESS, actor, buf=buf, write=write, note=note)


def _keyed(rec: Optional[Recorder], obj: SyncObj) -> SyncObj:
    """``obj`` with each object in it (not a str, int or tuple) replaced by
    its recorder token, or by 0 when no sanitizer is active."""
    return tuple(
        v if isinstance(v, (str, int, tuple)) else rec.sync_ident(v) if rec is not None else 0
        for v in obj
    )


def acquire(actor: Actor, obj: SyncObj) -> None:
    run = current()
    if run.bus is not None:
        run.bus.instant(CAT, ACQUIRE, actor, obj=_keyed(run.recorder, obj))


def release(actor: Actor, obj: SyncObj) -> None:
    run = current()
    if run.bus is not None:
        run.bus.instant(CAT, RELEASE, actor, obj=_keyed(run.recorder, obj))


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
