"""``python -m repro san`` — sanitize a script, or list the checks.

::

    python -m repro san examples/quickstart.py      # run under the sanitizer
    python -m repro san quickstart                  # shorthand for the above
    python -m repro san --list-checks               # dynamic + static catalogue
    python -m repro san --trace examples/quickstart.py   # also dump the trace

Exit status: 0 when the run produced zero findings, 1 otherwise (2 for a
crashed target).  The target runs with ``__name__ == "__main__"`` exactly
as if invoked directly; every ``World``/``Engine`` it creates is recorded.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.san.checks import DYNAMIC_CHECKS
from repro.san.report import Report
from repro.san.sanitizer import Sanitizer


def list_checks() -> str:
    # One registry for every static rule (repro.analyze.registry): this
    # listing and `repro analyze --list` enumerate the same table.
    from repro.analyze.registry import all_rules

    lines = ["dynamic checks (python -m repro san <script>):"]
    for info, _fn in DYNAMIC_CHECKS.values():
        lines.append(f"  {info.id:22s} {info.summary}")
    lines.append("static rules (python -m repro analyze):")
    for rule in all_rules().values():
        lines.append(f"  {rule.id:22s} [{rule.family}] {rule.summary}")
    return "\n".join(lines)


def resolve_target(target: str) -> Path:
    """A script path, or a bare example name (``quickstart``)."""
    path = Path(target)
    if path.is_file():
        return path
    candidate = Path("examples") / f"{target}.py"
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"no such script: {target!r} (tried {path} and {candidate})"
    )


def sanitize_script(
    path: Path, checks: Optional[Sequence[str]] = None
) -> Report:
    """Execute ``path`` as ``__main__`` inside a sanitizer window."""
    with Sanitizer(checks=checks) as san:
        runpy.run_path(str(path), run_name="__main__")
    assert san.report is not None
    return san.report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro san",
        description="Run a script under the partitioned-communication sanitizer.",
    )
    parser.add_argument("target", nargs="?", help="script path or example name")
    parser.add_argument(
        "--list-checks", action="store_true",
        help="list every dynamic and static check, then exit",
    )
    parser.add_argument(
        "--check", action="append", metavar="ID", dest="checks",
        help="run only this check (repeatable; default: all)",
    )
    parser.add_argument(
        "--trace", action="store_true", help="dump the recorded event trace"
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        print(list_checks())
        return 0
    if args.target is None:
        parser.error("a target script is required (or --list-checks)")
    if args.checks:
        unknown = sorted(set(args.checks) - set(DYNAMIC_CHECKS))
        if unknown:
            print(
                f"san: unknown check id(s): {', '.join(unknown)} "
                "(see --list-checks)", file=sys.stderr,
            )
            return 2

    try:
        path = resolve_target(args.target)
    except FileNotFoundError as exc:
        print(f"san: {exc}", file=sys.stderr)
        return 2
    try:
        report = sanitize_script(path, checks=args.checks)
    except Exception as exc:  # noqa: BLE001 - CLI surface
        print(f"san: target crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        for ev in report.trace:
            print(ev.render())
    print(report.render())
    return 0 if report.ok else 1
