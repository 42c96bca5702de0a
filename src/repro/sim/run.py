"""The run scope: one frozen :class:`Run` holds every setting of a run.

A run hands the engines and fabrics it builds four facts:

``policy``
    the dataplane path policy name (None = single-path), read by
    ``Fabric.__init__``;
``faults``
    the :class:`~repro.hw.faults.FaultSchedule` each fabric installs on
    its engine (DESIGN.md §17), read by ``Fabric.__init__``;
``bus``
    the instrumentation :class:`~repro.obs.bus.Bus` every ``Engine``
    attaches to at construction.  Any bus, even one without subscribers,
    selects the exact path (:func:`repro.sim.engine.collapsible`) and
    arms the sanitizer's record hooks;
``recorder``
    the active sanitizer's :class:`~repro.san.record.Recorder`, which
    answers :func:`repro.san.record.ident`.

One :func:`run_scope` sets them for the block it guards; :func:`current`
reads them.  Forked shard workers inherit the run in force at fork.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional


@dataclass(frozen=True)
class Run:
    """The settings in force for everything built inside one run scope."""

    policy: Optional[str] = None
    faults: Any = None
    bus: Any = None
    recorder: Any = None


_RUN = Run()


def current() -> Run:
    """The run in force here (all fields None outside every scope)."""
    return _RUN


@contextmanager
def run_scope(
    policy: Optional[str] = None,
    faults: Any = None,
    bus: Any = None,
    recorder: Any = None,
) -> Iterator[Run]:
    """Set the run for the block; fields left None inherit the outer run.

    A run observes through one bus: setting a different ``bus`` while one
    is set raises, and so does a second ``recorder`` (sanitizers do not
    nest).  The outer run comes back on exit, also when the block raises.
    """
    global _RUN
    outer = _RUN
    if bus is not None and outer.bus is not None and bus is not outer.bus:
        raise RuntimeError("this run already has an obs bus")
    if recorder is not None and outer.recorder is not None:
        raise RuntimeError("a Sanitizer is already active; Sanitizers do not nest")
    _RUN = Run(
        policy if policy is not None else outer.policy,
        faults if faults is not None else outer.faults,
        bus if bus is not None else outer.bus,
        recorder if recorder is not None else outer.recorder,
    )
    try:
        yield _RUN
    finally:
        _RUN = outer
