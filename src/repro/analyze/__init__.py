"""repro.analyze — whole-program static analysis (DESIGN.md §13).

One :class:`~repro.analyze.model.Project` (module table, symbol tables,
call resolution, per-function CFGs) shared by four pass families:

* ``invariant``   — per-module repo conventions: no wall-clock, unit
  literals, dropped process returns, eager obs payloads, and the
  table-driven ``module-ownership`` rule;
* ``effects``     — DES coroutine effect checking: what can each
  simulation process generator yield, and are created waiters always
  awaited on every path;
* ``determinism`` — unordered-iteration / unseeded-RNG / id()-ordering /
  float-accumulation hazards;
* ``hb-static``   — a static happens-before approximation for the
  partitioned-communication data paths.

Entry point: ``python -m repro analyze`` (:mod:`repro.analyze.cli`).
"""

from repro.analyze.model import Project  # noqa: F401
from repro.analyze.rules import Finding, Pass, Rule  # noqa: F401
