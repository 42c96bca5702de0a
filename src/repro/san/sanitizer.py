"""The Sanitizer context manager: record a window, then analyze it.

::

    with Sanitizer() as san:
        World(ONE_NODE).run(main, nprocs=2)
    if not san.report.ok:
        print(san.report.render())

A sanitizer is the run's ``recorder`` while active (exactly one at a
time): every Engine built inside the window attaches to the run's bus,
so multi-``World`` programs — e.g. ``examples/jacobi_halo.py`` running
six solves — are sanitized end to end.  Analysis (the happens-before
detector plus the partitioned-semantics checks) runs once, at
``__exit__``; the report is also computed when the body raises, so
guard-tripped runs still yield findings.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Optional, Sequence

from repro.obs import bus as obs_bus
from repro.san import record
from repro.san.checks import run_checks
from repro.san.report import Finding, Report
from repro.sim.run import current, run_scope


class Sanitizer:
    """Records one window of simulation and checks it.

    Recording rides the :mod:`repro.obs` bus: entering subscribes a fresh
    :class:`~repro.san.record.Recorder` to the run's bus (setting a
    private one when no profiler already set theirs), so sanitizing and
    profiling the same run compose.

    Parameters
    ----------
    checks:
        Check ids to run (default: every dynamic check).  See
        ``python -m repro san --list-checks``.
    """

    def __init__(self, checks: Optional[Sequence[str]] = None) -> None:
        self.checks = list(checks) if checks is not None else None
        self.recorder: Optional[record.Recorder] = None
        self.report: Optional[Report] = None
        self._scope: Optional[ExitStack] = None

    # -- context management -------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        rec = record.Recorder()
        bus = current().bus or obs_bus.Bus()
        scope = ExitStack()
        scope.enter_context(run_scope(bus=bus, recorder=rec))
        bus.subscribe(rec)
        scope.callback(bus.unsubscribe, rec)
        self.recorder, self._scope = rec, scope
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._scope is not None
        self._scope.close()
        self._scope = None
        rec = self.recorder
        self.report = Report(
            findings=run_checks(rec.events, rec.allocs, only=self.checks),
            trace=rec.events,
        )
        return False  # never swallow the body's exception

    # -- results ------------------------------------------------------------
    @property
    def findings(self) -> List[Finding]:
        if self.report is None:
            raise RuntimeError("sanitizer window still open (or never entered)")
        return self.report.findings

    def trace_bytes(self) -> bytes:
        """Deterministic serialization of the recorded trace."""
        if self.recorder is None:
            raise RuntimeError("sanitizer was never entered")
        return self.recorder.trace_bytes()
