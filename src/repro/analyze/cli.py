"""``python -m repro analyze`` — static analysis of the source tree.

::

    python -m repro analyze                       # analyze src/repro
    python -m repro analyze src/repro tests       # explicit roots
    python -m repro analyze --list                # rule catalogue
    python -m repro analyze --rule det-unordered-iter   # one rule only

Exit status: 0 with no finding, 1 with any finding, 2 on usage errors
and on a file that does not parse.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analyze.model import ParseError, Project
from repro.analyze.registry import all_passes, render_rules
from repro.analyze.rules import run_passes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Static analysis of the source tree (see repro.analyze).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list every rule, then exit"
    )
    parser.add_argument(
        "--rule", action="append", metavar="ID", dest="rules",
        help="run only this rule (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(render_rules())
        return 0

    try:
        project = Project.load([Path(p) for p in args.paths])
        findings = run_passes(project, all_passes(), only=args.rules)
    except ParseError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"analyze: {exc} (see --list)", file=sys.stderr)
        return 2

    for f in findings:
        print(f.render())
    print(f"analyze: {len(findings)} finding(s) ({len(project.modules)} modules)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(main())
