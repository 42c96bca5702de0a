"""Determinism lint: order hazards the engine contract forbids.

The simulator's reproducibility claim (``sim/engine.py``: identical
``(time, priority, seq)`` pop order for identical programs) only holds
when no scheduling-relevant value depends on Python's *unordered*
containers.  Set iteration order varies with ``PYTHONHASHSEED`` for
str/bytes elements; ``set.pop()`` is explicitly arbitrary; float sums
differ under re-ordering.  These rules flag the syntactic shapes where
that nondeterminism can leak into results:

``det-unordered-iter``
    Iterating a set (``for``/comprehension), materializing one in order
    (``list``/``tuple``/``enumerate``/``iter``), taking ``min``/``max``
    of one (tie-breaks are order-dependent), or ``set.pop()``.
    ``sorted(...)`` over a set is the sanctioned fix and never flagged.
``det-float-accum``
    ``sum(...)`` over a set, or ``+=`` accumulation inside a loop over a
    set — float accumulation order follows the unordered iteration.

Sets are recognized structurally: literals, set comprehensions,
``set(...)``/``frozenset(...)`` calls, and local names assigned from
one.  Everything else is unknown and never flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set

from repro.analyze.model import ModuleInfo, Project, owned_nodes
from repro.analyze.rules import Finding, Pass, Rule

FAMILY = "determinism"

UNORDERED_ITER = "det-unordered-iter"
FLOAT_ACCUM = "det-float-accum"

RULES: Dict[str, Rule] = {
    UNORDERED_ITER: Rule(
        UNORDERED_ITER, FAMILY,
        "iteration order of a set is hash-seed dependent — sort it "
        "(sorted(...)) before order can reach scheduling or routing",
    ),
    FLOAT_ACCUM: Rule(
        FLOAT_ACCUM, FAMILY,
        "accumulating floats in set-iteration order makes the total "
        "hash-seed dependent — sort the operands first",
    ),
}

#: Functions that materialize their argument's iteration order.
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter", "min", "max"}


def _set_vars(root: ast.AST) -> Set[str]:
    """Local names assigned (only) from set-constructing expressions."""
    names: Set[str] = set()
    for node in owned_nodes(root):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            if _is_set_expr(node.value, frozenset()):
                names.add(node.targets[0].id)
    return names


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra keeps set-ness when either side is a known set
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    return False


def _scan_scope(
    root: ast.AST, mod: ModuleInfo, qualname: str, enabled: Set[str]
) -> List[Finding]:
    set_vars = _set_vars(root)
    found: List[Finding] = []

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        if rule in enabled:
            found.append(Finding(rule, mod.path, node.lineno, msg, qualname))

    for node in owned_nodes(root):
        if isinstance(node, ast.For) and _is_set_expr(node.iter, set_vars):
            flag(UNORDERED_ITER, node.iter,
                 "for-loop over a set iterates in hash order")
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            ordered = not isinstance(node, (ast.SetComp, ast.DictComp))
            for comp in node.generators:
                if ordered and _is_set_expr(comp.iter, set_vars):
                    flag(UNORDERED_ITER, comp.iter,
                         "comprehension over a set iterates in hash order")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if (
                    func.id in _ORDER_SINKS
                    and node.args
                    and _is_set_expr(node.args[0], set_vars)
                ):
                    what = (
                        "tie-breaks in hash order"
                        if func.id in ("min", "max")
                        else "materializes hash order"
                    )
                    flag(UNORDERED_ITER, node,
                         f"{func.id}() over a set {what}")
                elif (
                    func.id == "sum"
                    and node.args
                    and _sums_a_set(node.args[0], set_vars)
                ):
                    flag(FLOAT_ACCUM, node,
                         "sum() over a set accumulates in hash order")
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "pop"
                and not node.args
                and _is_set_expr(func.value, set_vars)
            ):
                flag(UNORDERED_ITER, node,
                     "set.pop() removes a hash-order-arbitrary element")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            loop = _enclosing_set_loop(root, node, set_vars)
            if loop is not None:
                flag(FLOAT_ACCUM, node,
                     "accumulation inside a loop over a set follows hash order")
    return found


def _sums_a_set(arg: ast.AST, set_vars: Set[str]) -> bool:
    if _is_set_expr(arg, set_vars):
        return True
    if isinstance(arg, ast.GeneratorExp):
        return any(_is_set_expr(c.iter, set_vars) for c in arg.generators)
    return False


def _enclosing_set_loop(root, target: ast.AST, set_vars: Set[str]):
    """The nearest for-over-a-set that lexically contains ``target``."""
    best = None
    for node in owned_nodes(root):
        if isinstance(node, ast.For) and _is_set_expr(node.iter, set_vars):
            for sub in ast.walk(node):
                if sub is target:
                    best = node
                    break
    return best


def run(project: Project, enabled: Sequence[str]) -> List[Finding]:
    enabled_set = set(enabled)
    findings: List[Finding] = []
    for mod in project.modules:
        findings += _scan_scope(mod.tree, mod, "", enabled_set)
        for fi in mod.functions:
            findings += _scan_scope(fi.node, mod, fi.qualname, enabled_set)
    return findings


PASS = Pass(family=FAMILY, rules=RULES, run=run)
