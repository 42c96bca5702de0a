"""Inline suppressions: ``# repro: ignore[rule-id]``.

Grammar (one marker per line, anywhere in a comment)::

    x = risky()                # repro: ignore[det-unordered-iter]
    y = risky2()               # repro: ignore[rule-a, rule-b]
    # repro: ignore[det-float-accum]     <- suppresses the *next* line too
    z = risky3()
    w = anything()             # repro: ignore

A bare ``ignore`` (no bracket list) suppresses every rule on that line —
reserved for generated code; prefer naming the rule so the suppression
dies with it.  The scanner is regex-based on raw source lines, so it
works on files the AST passes cannot parse.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Set

_MARKER = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?"
)


def scan_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """1-based line -> None (all rules) | set of suppressed rule ids."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro:" not in line:
            continue
        m = _MARKER.search(line)
        if m is None:
            continue
        rules = m.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            ids = {r.strip() for r in rules.split(",") if r.strip()}
            if not ids:
                table[lineno] = None
            else:
                prev = table.get(lineno)
                if prev is None and lineno in table:
                    continue  # an ignore-all already covers this line
                table[lineno] = (prev or set()) | ids
    return table
