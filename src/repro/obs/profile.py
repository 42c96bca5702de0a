"""Utilization and critical-path analysis over the event stream.

Utilization: for every occupiable resource with span events — SMs (kernel
executions per GPU), copy engines, links (incl. NICs), progression
engines, streams — merge the busy intervals and report the busy fraction
of the observed window, plus byte totals where the spans carry them.

Critical path: a longest-chain heuristic over the span DAG.  The DES does
not record explicit dependency edges, but in a discrete-event timeline a
span can only be *enabled* by work that finished no later than it started;
walking back from the last-finishing span to the latest-ending such
predecessor recovers the dominant serial chain (ties break on bus ``seq``,
so the report is deterministic).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.bus import SPAN, ObsEvent, labelled
from repro.san.record import fmt_actor
from repro.units import fmt_bytes, fmt_time


class Collector:
    """The simplest subscriber: keep every event for offline analysis.

    A kept payload is :func:`~repro.obs.bus.labelled`; a raw one would pin
    every Buffer a run allocates.
    """

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    def on_event(self, ev: ObsEvent) -> None:
        payload = labelled(ev.payload)
        self.events.append(ev if payload is ev.payload else ev._replace(payload=payload))


# --------------------------------------------------------------------------
# utilization
# --------------------------------------------------------------------------

#: span categories that represent resource occupancy, mapped to the report
#: group they appear under.
_OCCUPANCY_GROUPS = {
    "kernel": "sm",
    "copy_engine": "copy_engine",
    "link": "link",
    "pe": "progress_engine",
    "stream": "stream",
    "ucx": "ucx",
}


@dataclass
class TrackUtil:
    """Busy-time accounting for one resource track."""

    key: str                        # display name (link name, gpu0.sm, ...)
    group: str                      # sm / copy_engine / link / ...
    kind: str = ""                  # telemetry class for links
    busy: float = 0.0               # merged busy seconds
    spans: int = 0
    bytes: int = 0
    _intervals: List[Tuple[float, float]] = field(default_factory=list, repr=False)


def _merged_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _track_key(ev: ObsEvent) -> Tuple[str, str]:
    group = _OCCUPANCY_GROUPS[ev.cat]
    if ev.cat == "kernel":
        gpu = ev.actor[1] if ev.actor is not None and len(ev.actor) > 1 else "gpu?"
        return f"{gpu}.sm", group
    if ev.cat in ("link", "copy_engine"):
        return ev.name, group
    if ev.actor is not None:
        return fmt_actor(ev.actor), group
    return ev.name, group


@dataclass
class UtilReport:
    """Busy-time tracks plus the window they are measured against."""

    tracks: Dict[str, TrackUtil]
    window: float

    def __getitem__(self, key: str) -> TrackUtil:
        return self.tracks[key]

    def group(self, name: str) -> List[TrackUtil]:
        return [t for t in self.tracks.values() if t.group == name]


def utilization(events: Iterable[ObsEvent]) -> UtilReport:
    """Per-track busy time over ``[0, last span end]``."""
    tracks: Dict[str, TrackUtil] = {}
    t_max = 0.0
    for ev in events:
        if ev.kind != SPAN or ev.cat not in _OCCUPANCY_GROUPS:
            continue
        t_max = max(t_max, ev.t1)
        key, group = _track_key(ev)
        track = tracks.get(key)
        if track is None:
            track = tracks[key] = TrackUtil(key, group, kind=ev.get("kind", ""))
        track._intervals.append((ev.t0, ev.t1))
        track.spans += 1
        track.bytes += ev.get("nbytes", 0)
    for track in tracks.values():
        track.busy = _merged_length(track._intervals)
        track._intervals.clear()
    return UtilReport(tracks, t_max)


def render_utilization(report: UtilReport) -> str:
    if not report.tracks:
        return "utilization: no occupancy spans recorded"
    window = report.window
    lines = [
        f"utilization over {fmt_time(window)} simulated:",
        f"{'resource':<28} {'group':<15} {'busy':>12} {'util':>7} "
        f"{'spans':>7} {'bytes':>10}",
    ]
    order = {g: i for i, g in enumerate(
        ("sm", "copy_engine", "link", "progress_engine", "stream", "ucx")
    )}
    for track in sorted(
        report.tracks.values(), key=lambda t: (order.get(t.group, 99), t.key)
    ):
        frac = track.busy / window if window > 0 else 0.0
        nbytes = fmt_bytes(track.bytes) if track.bytes else "-"
        lines.append(
            f"{track.key:<28} {track.group:<15} {fmt_time(track.busy):>12} "
            f"{frac:>6.1%} {track.spans:>7} {nbytes:>10}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# critical path
# --------------------------------------------------------------------------

def critical_path(events: Iterable[ObsEvent]) -> List[ObsEvent]:
    """Dominant serial chain of spans, earliest first (see module docstring).

    Deterministic: candidate order is ``(t1, seq)`` and the walk strictly
    decreases that key, so the chain terminates and replays identically.
    """
    spans = sorted(
        (e for e in events if e.kind == SPAN), key=lambda e: (e.t1, e.seq)
    )
    if not spans:
        return []
    keys = [(e.t1, e.seq) for e in spans]
    cur = spans[-1]
    chain = [cur]
    eps = 1e-12
    while True:
        # Latest-finishing span that ended by the time `cur` started and
        # strictly precedes it in (t1, seq) order.
        idx = bisect_right(keys, (cur.t0 + eps, float("inf"))) - 1
        while idx >= 0 and keys[idx] >= (cur.t1, cur.seq):
            idx -= 1
        if idx < 0:
            break
        cur = spans[idx]
        chain.append(cur)
    chain.reverse()
    return chain


def render_critical_path(chain: List[ObsEvent]) -> str:
    if not chain:
        return "critical path: no spans recorded"
    makespan = chain[-1].t1 - chain[0].t0
    covered = sum(e.t1 - e.t0 for e in chain)
    lines = [
        f"critical path: {len(chain)} spans, {fmt_time(covered)} of "
        f"{fmt_time(makespan)} makespan "
        f"({covered / makespan:.0%} serialized)" if makespan > 0 else
        "critical path: zero-length makespan",
    ]
    prev_end: Optional[float] = None
    for ev in chain:
        gap = ""
        if prev_end is not None and ev.t0 - prev_end > 1e-12:
            gap = f"  (+{fmt_time(ev.t0 - prev_end)} gap)"
        actor = fmt_actor(ev.actor) if ev.actor is not None else ev.cat
        lines.append(
            f"  t={fmt_time(ev.t0):>10}  {fmt_time(ev.t1 - ev.t0):>10}  "
            f"{ev.cat}:{ev.name}  [{actor}]{gap}"
        )
        prev_end = ev.t1
    return "\n".join(lines)
