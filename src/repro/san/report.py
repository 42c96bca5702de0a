"""Findings and reports produced by the sanitizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.san.record import Actor, TraceEvent, fmt_actor
from repro.units import fmt_time


@dataclass(frozen=True)
class Finding:
    """One detected violation, with actor/time provenance."""

    check: str                       # check id, e.g. "double-pready"
    message: str
    time: float
    actor: Optional[Actor] = None
    #: Related (time, actor, what) provenance, e.g. the first Pready of a
    #: doubled pair, or the conflicting access of a race.
    related: Tuple[Tuple[float, Optional[Actor], str], ...] = ()

    def render(self) -> str:
        head = (
            f"[{self.check}] t={fmt_time(self.time)} "
            f"actor={fmt_actor(self.actor)}: {self.message}"
        )
        lines = [head]
        for t, actor, what in self.related:
            lines.append(f"    .. t={fmt_time(t)} actor={fmt_actor(actor)}: {what}")
        return "\n".join(lines)


@dataclass
class Report:
    """Outcome of one sanitized window: findings + the full trace."""

    findings: List[Finding] = field(default_factory=list)
    trace: Sequence[TraceEvent] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if not self.findings:
            return f"san: 0 findings ({len(self.trace)} trace events)"
        lines = [f"san: {len(self.findings)} finding(s):"]
        lines += [f.render() for f in self.findings]
        return "\n".join(lines)
