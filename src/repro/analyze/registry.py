"""The one rule registry.

Every static rule in the repo — the repo invariants and the effects,
determinism and happens-before families — registers here and nowhere
else.  ``python -m repro analyze --list`` and ``python -m repro san
--list-checks`` both enumerate this table, so the catalogues cannot
drift (tests/analyze/test_registry.py pins it).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analyze.passes import determinism, effects, graphcap, hbstatic, invariants
from repro.analyze.rules import Pass, Rule


def all_passes() -> List[Pass]:
    """Pass families in report order (matches rules.FAMILIES)."""
    return [invariants.PASS, effects.PASS, determinism.PASS, hbstatic.PASS,
            graphcap.PASS]


def all_rules() -> Dict[str, Rule]:
    """rule id -> Rule, ordered family-by-family."""
    table: Dict[str, Rule] = {}
    for p in all_passes():
        for rid, rule in p.rules.items():
            if rid in table:
                raise ValueError(f"duplicate analyzer rule id: {rid}")
            table[rid] = rule
    return table


def render_rules() -> str:
    lines = []
    for rule in all_rules().values():
        lines.append(f"{rule.id:22s} [{rule.family}] {rule.summary}")
    return "\n".join(lines)
