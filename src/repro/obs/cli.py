"""``python -m repro profile`` — run a script under the instrumentation bus.

::

    python -m repro profile examples/quickstart.py --chrome trace.json
    python -m repro profile quickstart --util --critical-path
    python -m repro profile pingpong_partitioned --chrome t.json --steps

The target runs with ``__name__ == "__main__"`` exactly as if invoked
directly, inside ``run_scope(bus=...)``: every ``World``/``Engine`` it
creates attaches to that :class:`~repro.obs.bus.Bus`.  Exit status: 0
on success, 2 when the target crashes.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from collections import Counter as _Tally
from typing import List, Optional, Sequence

from repro.obs import bus as obs_bus
from repro.obs.chrome import chrome_trace, validate_trace
from repro.obs.profile import (
    Collector,
    critical_path,
    render_critical_path,
    render_utilization,
    utilization,
)
from repro.san.cli import resolve_target
from repro.sim.run import run_scope
from repro.units import fmt_time


def profile_script(path: str) -> List:
    """Execute ``path`` as ``__main__`` under the run's bus; return events."""
    bus = obs_bus.Bus()
    collector = Collector()
    bus.subscribe(collector)
    with run_scope(bus=bus):
        runpy.run_path(str(path), run_name="__main__")
    return collector.events


def _summary(events: List) -> str:
    tally = _Tally((ev.kind, ev.cat) for ev in events)
    t_end = max((ev.t1 for ev in events), default=0.0)
    lines = [
        f"profile: {len(events)} events over {fmt_time(t_end)} simulated",
    ]
    for (kind, cat), n in sorted(tally.items()):
        lines.append(f"  {kind:<8} {cat:<12} {n}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run a script under the repro.obs instrumentation bus.",
    )
    parser.add_argument("target", help="script path or example name")
    parser.add_argument(
        "--chrome", metavar="OUT.json",
        help="write a Chrome trace_event JSON (open in Perfetto)",
    )
    parser.add_argument(
        "--util", action="store_true",
        help="print the per-resource utilization report",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="print the critical-path report over the span DAG",
    )
    parser.add_argument(
        "--steps", action="store_true",
        help="include per-step engine instants in the Chrome export (noisy)",
    )
    args = parser.parse_args(argv)

    try:
        path = resolve_target(args.target)
    except FileNotFoundError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    try:
        events = profile_script(str(path))
    except Exception as exc:  # noqa: BLE001 - CLI surface
        print(
            f"profile: target crashed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2

    print(_summary(events))
    if args.chrome:
        obj = chrome_trace(events, include=("engine",) if args.steps else None)
        validate_trace(obj)
        with open(args.chrome, "w") as fh:
            json.dump(obj, fh)
        print(f"profile: wrote {len(obj['traceEvents'])} trace events to {args.chrome}")
    if args.util:
        print(render_utilization(utilization(events)))
    if args.critical_path:
        print(render_critical_path(critical_path(events)))
    return 0
