"""Chrome ``trace_event``-format export (loads in Perfetto / about:tracing).

One track (tid) per actor, named with the sanitizer's actor formatting;
spans become complete events (``ph="X"``), instants become thread-scoped
instant events (``ph="i"``), counters become ``ph="C"`` series.  Simulated
seconds map to trace microseconds.

``validate_trace`` is the schema check ``scripts/ci.sh`` runs against the
exported JSON.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.bus import COUNTER, INSTANT, SPAN, ObsEvent
from repro.san.record import fmt_actor

#: Trace pid for the single simulated process.
_PID = 0

#: Categories excluded by default: per-step engine instants are one event
#: per heap pop and drown every other track.
_NOISY = frozenset({"engine"})


def _track_name(ev: ObsEvent) -> str:
    if ev.actor is not None:
        return fmt_actor(ev.actor)
    # Anonymous events group by category so links/copies get their own track.
    return ev.cat


def chrome_trace(
    events: Iterable[ObsEvent], include: Optional[Iterable[str]] = None
) -> Dict[str, Any]:
    """Build a ``{"traceEvents": [...]}`` object from a stream of kept
    events (payloads :func:`~repro.obs.bus.labelled`, as
    :class:`~repro.obs.profile.Collector` keeps them).

    Payload keys are sorted here, the one place their order shows.

    ``include``: extra categories to keep that are noisy by default
    (currently just ``"engine"``, the per-step heap instants).
    """
    keep_noisy = frozenset(include or ())
    tids: Dict[str, int] = {}
    out: List[Dict[str, Any]] = []

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids)
            tids[track] = tid
            out.append({
                "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
                "args": {"name": track},
            })
        return tid

    for ev in events:
        if ev.cat in _NOISY and ev.cat not in keep_noisy:
            continue
        args = dict(sorted(ev.payload.items()))
        ts = ev.t0 * 1e6
        if ev.kind == SPAN:
            out.append({
                "name": ev.name, "cat": ev.cat, "ph": "X",
                "ts": ts, "dur": (ev.t1 - ev.t0) * 1e6,
                "pid": _PID, "tid": tid_for(_track_name(ev)), "args": args,
            })
        elif ev.kind == INSTANT:
            out.append({
                "name": ev.name, "cat": ev.cat, "ph": "i", "s": "t",
                "ts": ts, "pid": _PID, "tid": tid_for(_track_name(ev)),
                "args": args,
            })
        elif ev.kind == COUNTER:
            numeric = {
                k: v for k, v in args.items() if isinstance(v, (int, float))
            }
            out.append({
                "name": ev.name, "cat": ev.cat, "ph": "C",
                "ts": ts, "pid": _PID, "args": numeric,
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro.obs", "clock": "simulated-seconds*1e6"},
    }


def validate_trace(obj: Any) -> None:
    """Raise ``ValueError`` unless ``obj`` is a well-formed trace_event JSON
    object (the subset this exporter emits)."""
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("trace must be an object with a 'traceEvents' list")
    for i, ev in enumerate(obj["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "C", "M"):
            raise ValueError(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            raise ValueError(f"{where}: missing event name")
        if "pid" not in ev:
            raise ValueError(f"{where}: missing pid")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: complete event needs dur >= 0")
        if ph == "i" and ev.get("s") not in ("t", "p", "g", None):
            raise ValueError(f"{where}: bad instant scope {ev.get('s')!r}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            raise ValueError(f"{where}: counter event needs an args dict")
