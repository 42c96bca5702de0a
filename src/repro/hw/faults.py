"""Fault schedules: scripted link mutations on a simulated timeline.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`s —
JSONL lines of the shape ``{"t": 2.5e-3, "link": "nvl0->1", "action":
"down"}`` with optional ``factor`` (degrade) and ``node`` (shard scope)
fields — that any :class:`~repro.workload.base.Workload` run can plug in
(``run(..., faults=...)``) and ``python -m repro fault`` drives from the
command line.

A run's schedule reaches its fabrics through the run scope
(:func:`repro.sim.run.run_scope`, entered by ``Workload.run``): every
:class:`~repro.hw.topology.Fabric` built inside it installs the events on
its engine as ordinary ``timeout_at`` heap entries whose callbacks call
the :class:`~repro.hw.links.LinkState` mutation API.  Because
installation happens at fabric construction (before any workload process
is spawned) and fires in simulated time, sequential and sharded drivers
observe the identical fabric history — forked shard workers inherit the
run and re-install it per shard.

Shard scoping: ``node`` restricts an event to one engine shard (shard
fabrics name links with node-local indices, so ``swup0`` exists on every
shard; ``node`` picks which one fails).  Each shard narrows the run's
schedule to its node (:meth:`FaultSchedule.for_shard`) while it builds
its fabrics.  Events without ``node`` apply to every fabric that sees
them.  Cross-shard wire segments are priced analytically by the shard
bridge and have no mutable links; faults apply to the links a fabric
actually owns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.topology import Fabric


class FaultError(Exception):
    """A malformed fault schedule or an unknown link/action."""


ACTIONS = ("down", "restore", "degrade")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted mutation: at time ``t``, apply ``action`` to ``link``."""

    t: float
    link: str
    action: str                     # "down" | "restore" | "degrade"
    factor: Optional[float] = None  # degrade only: (0, 1] of healthy bw
    node: Optional[int] = None      # shard scope; None = every fabric

    def validate(self, where: str = "fault event") -> None:
        if not isinstance(self.t, (int, float)) or self.t < 0:
            raise FaultError(f"{where}: t must be a non-negative number, got {self.t!r}")
        if not self.link or not isinstance(self.link, str):
            raise FaultError(f"{where}: link must be a non-empty link name")
        if self.action not in ACTIONS:
            raise FaultError(
                f"{where}: unknown action {self.action!r} "
                f"(known: {', '.join(ACTIONS)})"
            )
        if self.action == "degrade":
            if not isinstance(self.factor, (int, float)) or not 0.0 < self.factor <= 1.0:
                raise FaultError(
                    f"{where}: degrade needs factor in (0, 1], got {self.factor!r}"
                )
        elif self.factor is not None:
            raise FaultError(f"{where}: factor only applies to degrade")
        if self.node is not None and (not isinstance(self.node, int) or self.node < 0):
            raise FaultError(f"{where}: node must be a non-negative integer")

    def as_dict(self) -> dict:
        doc = {"t": self.t, "link": self.link, "action": self.action}
        if self.factor is not None:
            doc["factor"] = self.factor
        if self.node is not None:
            doc["node"] = self.node
        return doc


class FaultSchedule:
    """A validated, ordered list of fault events (install order = input order)."""

    def __init__(self, events: Sequence[FaultEvent], source: str = "<faults>") -> None:
        self.events = tuple(events)
        self.source = source
        for i, ev in enumerate(self.events):
            ev.validate(f"{source}: event {i}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def parse_jsonl(cls, text: str, source: str = "<faults>") -> "FaultSchedule":
        events: List[FaultEvent] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FaultError(f"{source}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise FaultError(f"{source}:{lineno}: expected a JSON object")
            unknown = set(doc) - {"t", "link", "action", "factor", "node"}
            if unknown:
                raise FaultError(
                    f"{source}:{lineno}: unknown field(s) {sorted(unknown)}"
                )
            ev = FaultEvent(
                t=doc.get("t"), link=doc.get("link"), action=doc.get("action"),
                factor=doc.get("factor"), node=doc.get("node"),
            )
            ev.validate(f"{source}:{lineno}")
            events.append(ev)
        if not events:
            raise FaultError(f"{source}: empty fault schedule")
        return cls(events, source=source)

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path) as fh:
            return cls.parse_jsonl(fh.read(), source=path)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(ev.as_dict(), sort_keys=True) + "\n" for ev in self.events
        )

    def for_shard(self, node: int) -> "FaultSchedule":
        """The events engine shard ``node`` installs: unscoped events plus
        the ones naming its node (possibly none)."""
        return FaultSchedule(
            [ev for ev in self.events if ev.node is None or ev.node == node],
            source=self.source,
        )


def install_on_fabric(fabric: "Fabric", sched: FaultSchedule) -> list:
    """Install ``sched``'s events for this fabric; returns the heap events.

    Events at or before the engine's current time apply immediately (a
    fabric built mid-run must see the state the schedule already
    reached); future events become ``timeout_at`` entries whose pop
    applies the mutation.
    """
    engine = fabric.engine
    state = fabric.link_state
    installed = []
    if sched.events:
        # Guarded execution from t=0: the run's event shape must not
        # change when the first fault fires mid-run.
        state.arm()
    for ev in sched.events:
        state.find(ev.link)  # unknown names fail at install, not mid-run
        if ev.t <= engine.now:
            _apply(state, ev)
            continue
        timer = engine.timeout_at(ev.t)
        timer.add_callback(lambda _t, fe=ev, st=state: _apply(st, fe))
        installed.append(timer)
    return installed


def _apply(state, ev: FaultEvent) -> None:
    if ev.action == "down":
        state.down_link(ev.link)
    elif ev.action == "restore":
        state.restore_link(ev.link)
    else:
        state.degrade_bandwidth(ev.link, ev.factor)
