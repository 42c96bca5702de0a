"""The pluggable rule framework: rules, findings, and the run driver.

A *rule* is a catalogue entry (id, family, summary) owned by one *pass*
— a function ``run(project, enabled_ids) -> [Finding]`` that may emit
findings for any of its rules.  Passes share the :class:`Project` model
(every module parsed once).  Every finding is reported: there is no
inline suppression, so a finding is fixed, or its rule is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analyze.model import Project

#: Pass families, in report order.
FAMILIES = ("invariant", "determinism")


@dataclass(frozen=True)
class Rule:
    """Catalogue entry for one rule id."""

    id: str
    family: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule fired at a source location."""

    rule: str
    path: str
    line: int
    message: str
    function: str = ""          # qualname of the enclosing function, if any

    def render(self) -> str:
        where = f" (in {self.function})" if self.function else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{where}"


#: A pass: emits findings for the subset of its rules that are enabled.
PassFn = Callable[[Project, Sequence[str]], List[Finding]]


@dataclass
class Pass:
    """One pass family: its rules plus the function that runs them."""

    family: str
    rules: Dict[str, Rule]
    run: PassFn = field(repr=False, default=None)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def run_passes(
    project: Project,
    passes: Sequence[Pass],
    only: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every pass with its enabled rule subset; sorted findings."""
    known = {rid for p in passes for rid in p.rules}
    if only is not None:
        unknown = sorted(set(only) - known)
        if unknown:
            raise ValueError(f"unknown analyzer rules: {unknown}")
    findings: List[Finding] = []
    for p in passes:
        enabled = [
            rid for rid in p.rules if only is None or rid in only
        ]
        if enabled:
            findings += p.run(project, enabled)
    return sort_findings(findings)
