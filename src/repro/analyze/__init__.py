"""repro.analyze — static analysis of the source tree (DESIGN.md §13).

One :class:`~repro.analyze.model.Project` (every module parsed once,
with its functions) shared by two pass families:

* ``invariant``   — per-module repo conventions: no wall-clock, unit
  literals, and the table-driven ``module-ownership`` rule;
* ``determinism`` — unordered-iteration and float-accumulation hazards.

Each rule has a row in the DESIGN.md §13 audit table: a bug planted at
a live site that the rule flags and no other gate catches.

Entry point: ``python -m repro analyze`` (:mod:`repro.analyze.cli`).
"""

from repro.analyze.model import Project  # noqa: F401
from repro.analyze.rules import Finding, Pass, Rule  # noqa: F401
