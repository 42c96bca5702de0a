"""DES coroutine effect checking.

The engine's yield protocol (``sim/process.py``, ``Process._advance``)
accepts exactly: an ``Event``, ``None`` (reschedule immediately), or a
non-negative number (a relative delay).  Anything else raises at *run*
time, on whichever seed happens to drive execution down that path.  This
pass finds the violations statically:

``effect-illegal-yield``
    A ``yield`` whose value can only be something the engine rejects —
    a string/bytes/container/f-string literal, a negative constant
    delay, a call of a *generator* helper (``yield g()`` hands the
    engine a generator object; the author meant ``yield from g()``), a
    ``yield from`` of a non-generator helper, or a call of a helper all
    of whose ``return`` statements produce such literals.  Checked over
    every generator the engine can drive: the bodies handed to
    ``.process(...)`` / ``.run(...)`` plus the transitive ``yield
    from`` closure — helper generators are checked once reachable.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analyze.model import FunctionInfo, Project
from repro.analyze.rules import Finding, Pass, Rule

FAMILY = "effects"

ILLEGAL_YIELD = "effect-illegal-yield"

RULES: Dict[str, Rule] = {
    ILLEGAL_YIELD: Rule(
        ILLEGAL_YIELD, FAMILY,
        "a simulation process can only yield Event/None/non-negative "
        "delay — literal payloads, negative delays, and un-delegated "
        "generator calls raise at run time",
    ),
}

#: Engine methods whose first argument is a process body.
_SPAWN_ATTRS = {"process", "run"}


# --------------------------------------------------------------------------
# effect lattice helpers
# --------------------------------------------------------------------------

def _illegal_literal(node: ast.AST) -> Optional[str]:
    """A human name for the value if the engine must reject it, else None."""
    if isinstance(node, ast.Constant):
        v = node.value
        if v is None or isinstance(v, bool):
            return None
        if isinstance(v, (int, float)):
            return "negative delay" if v < 0 else None
        return f"{type(v).__name__} literal"
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list literal"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict literal"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Tuple):
        return "tuple literal"
    if isinstance(node, ast.GeneratorExp):
        return "generator expression"
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return "negative delay"
    return None


def _illegal_returns(fi: FunctionInfo) -> Optional[str]:
    """If *every* valued ``return`` of ``fi`` is an illegal literal, say so."""
    kinds: List[str] = []
    for node in fi.owned():
        if isinstance(node, ast.Return) and node.value is not None:
            kind = _illegal_literal(node.value)
            if kind is None:
                return None  # at least one return might be legal
            kinds.append(kind)
    if not kinds:
        return None
    return kinds[0]


# --------------------------------------------------------------------------
# root discovery + yield-from closure
# --------------------------------------------------------------------------

def _process_roots(project: Project) -> List[FunctionInfo]:
    """Generators handed to ``.process(...)`` / ``.run(...)`` anywhere."""
    roots: List[FunctionInfo] = []
    seen: Set[FunctionInfo] = set()
    for fi in project.functions:
        for node in fi.owned():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SPAWN_ATTRS
                and node.args
            ):
                continue
            first = node.args[0]
            target: Optional[FunctionInfo] = None
            if isinstance(first, ast.Call):
                target = project.resolve_call(fi, first.func)
            elif isinstance(first, (ast.Name, ast.Attribute)):
                target = project.resolve_call(fi, first)
            if target is not None and target.is_generator and target not in seen:
                seen.add(target)
                roots.append(target)
    return roots


def _driven_closure(
    project: Project, roots: List[FunctionInfo]
) -> List[FunctionInfo]:
    """Roots plus every generator reachable through ``yield from`` edges."""
    driven: List[FunctionInfo] = []
    seen: Set[FunctionInfo] = set()
    stack = list(roots)
    while stack:
        fi = stack.pop()
        if fi in seen:
            continue
        seen.add(fi)
        driven.append(fi)
        for node in fi.owned():
            if isinstance(node, ast.YieldFrom) and isinstance(
                node.value, ast.Call
            ):
                callee = project.resolve_call(fi, node.value.func)
                if callee is not None and callee.is_generator:
                    stack.append(callee)
    return sorted(driven, key=lambda f: (f.path, f.lineno, f.qualname))


def _check_yields(project: Project, fi: FunctionInfo) -> List[Finding]:
    found: List[Finding] = []

    def flag(node: ast.AST, msg: str) -> None:
        found.append(Finding(ILLEGAL_YIELD, fi.path, node.lineno, msg, fi.qualname))

    for node in fi.owned():
        if isinstance(node, ast.YieldFrom):
            if isinstance(node.value, ast.Call):
                callee = project.resolve_call(fi, node.value.func)
                if callee is not None and not callee.is_generator:
                    flag(
                        node,
                        f"'yield from {callee.name}(...)' but "
                        f"{callee.qualname} is not a generator — its return "
                        "value is iterated, not awaited",
                    )
            continue
        if not isinstance(node, ast.Yield) or node.value is None:
            continue
        value = node.value
        kind = _illegal_literal(value)
        if kind is not None:
            flag(
                node,
                f"process yields a {kind}; the engine accepts only "
                "Event, None, or a non-negative delay",
            )
            continue
        if isinstance(value, ast.Call):
            callee = project.resolve_call(fi, value.func)
            if callee is None:
                continue
            if callee.is_generator:
                flag(
                    node,
                    f"'yield {callee.name}(...)' hands the engine a "
                    "generator object — delegate with 'yield from' so its "
                    "steps actually run",
                )
            else:
                kind = _illegal_returns(callee)
                if kind is not None:
                    flag(
                        node,
                        f"helper {callee.qualname} can only return a {kind}, "
                        "which the engine rejects as a yield value",
                    )
    return found


# --------------------------------------------------------------------------
# the pass
# --------------------------------------------------------------------------

def run(project: Project, enabled: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for fi in _driven_closure(project, _process_roots(project)):
        findings += _check_yields(project, fi)
    return findings


PASS = Pass(family=FAMILY, rules=RULES, run=run)
