"""repro.analyze — whole-program static analysis (DESIGN.md §13).

One :class:`~repro.analyze.model.Project` (module table, symbol tables,
call resolution) shared by three pass families:

* ``invariant``   — per-module repo conventions: no wall-clock, unit
  literals, dropped process returns, eager obs payloads, and the
  table-driven ``module-ownership`` rule;
* ``effects``     — what each simulation process generator can yield;
* ``determinism`` — unordered-iteration / id()-ordering /
  float-accumulation hazards.

Each rule has a row in the DESIGN.md §13 audit table: a bug planted at
a live site that the rule flags and no other gate catches.

Entry point: ``python -m repro analyze`` (:mod:`repro.analyze.cli`).
"""

from repro.analyze.model import Project  # noqa: F401
from repro.analyze.rules import Finding, Pass, Rule  # noqa: F401
