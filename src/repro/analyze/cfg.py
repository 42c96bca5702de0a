"""Statement-level control-flow graphs + dominators.

Each node is one ``ast.stmt`` of the function's own body (nested defs are
single opaque statements).  Two synthetic nodes, ENTRY and EXIT, bracket
the graph.  Branching covers ``if``/``while``/``for``/``try``/``with``,
``break``/``continue``/``return``/``raise``; exception edges are coarse
(a handler is reachable from the try header and every body frontier),
which errs toward *more* paths — exactly the over-approximation the
happens-before rules want (a missed edge could hide a bug, a spurious
edge at worst costs a suppression).

Dominators use the classic iterative data-flow form; functions are small
(tens of statements), so the quadratic worst case never matters.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set


@dataclass
class CFG:
    """The graph: node ids -> statements, successor and predecessor lists."""

    entry: int
    exit: int
    stmts: Dict[int, Optional[ast.stmt]] = field(default_factory=dict)
    succs: Dict[int, List[int]] = field(default_factory=dict)
    preds: Dict[int, List[int]] = field(default_factory=dict)
    #: id(ast.stmt) -> node id, to map expression hits back onto the graph
    node_of_stmt: Dict[int, int] = field(default_factory=dict)
    _dom: Optional[Dict[int, Set[int]]] = None

    def nodes(self) -> Iterable[int]:
        return self.stmts.keys()

    # -- analyses ------------------------------------------------------------
    def dominators(self) -> Dict[int, Set[int]]:
        """node -> set of nodes that dominate it (reflexive)."""
        if self._dom is not None:
            return self._dom
        all_nodes = sorted(self.stmts)
        dom: Dict[int, Set[int]] = {n: set(all_nodes) for n in all_nodes}
        dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for n in all_nodes:
                if n == self.entry:
                    continue
                preds = self.preds.get(n, [])
                if preds:
                    new: Set[int] = set(all_nodes)
                    for p in preds:
                        new &= dom[p]
                else:
                    new = set()  # unreachable from entry
                new.add(n)
                if new != dom[n]:
                    dom[n] = new
                    changed = True
        self._dom = dom
        return dom

    def reachable_from(
        self, start: int, blocked: FrozenSet[int] = frozenset()
    ) -> Set[int]:
        """Nodes reachable from ``start`` along paths avoiding ``blocked``.

        ``start`` itself is not blocked; a blocked node is never entered
        (nor traversed through).
        """
        seen: Set[int] = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in self.succs.get(cur, ()):
                if nxt in seen or nxt in blocked:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return seen


class _Loop:
    __slots__ = ("breaks", "continues")

    def __init__(self) -> None:
        self.breaks: List[int] = []
        self.continues: List[int] = []


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG(entry=0, exit=1)
        self.cfg.stmts[0] = None
        self.cfg.stmts[1] = None
        self._next = 2

    def new(self, stmt: ast.stmt) -> int:
        nid = self._next
        self._next += 1
        self.cfg.stmts[nid] = stmt
        self.cfg.node_of_stmt[id(stmt)] = nid
        return nid

    def edge(self, a: int, b: int) -> None:
        self.cfg.succs.setdefault(a, []).append(b)
        self.cfg.preds.setdefault(b, []).append(a)

    def seq(self, stmts, preds: List[int], loops: List[_Loop]) -> List[int]:
        """Wire a statement list; returns the fall-through frontier."""
        for stmt in stmts:
            nid = self.new(stmt)
            for p in preds:
                self.edge(p, nid)
            preds = self.stmt(stmt, nid, loops)
            if not preds:
                break  # everything after return/raise/break is unreachable
        return preds

    def stmt(self, stmt: ast.stmt, nid: int, loops: List[_Loop]) -> List[int]:
        if isinstance(stmt, ast.If):
            out = self.seq(stmt.body, [nid], loops)
            if stmt.orelse:
                out = out + self.seq(stmt.orelse, [nid], loops)
            else:
                out = out + [nid]
            return out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            loop = _Loop()
            loops.append(loop)
            body_out = self.seq(stmt.body, [nid], loops)
            loops.pop()
            for p in body_out + loop.continues:
                self.edge(p, nid)  # back edge
            out = self.seq(stmt.orelse, [nid], loops) if stmt.orelse else [nid]
            return out + loop.breaks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.seq(stmt.body, [nid], loops)
        if isinstance(stmt, ast.Try):
            body_out = self.seq(stmt.body, [nid], loops)
            outs = list(body_out)
            for handler in stmt.handlers:
                outs += self.seq(handler.body, [nid] + body_out, loops)
            if stmt.orelse:
                # else runs only after a clean body; its frontier replaces it.
                else_out = self.seq(stmt.orelse, body_out, loops)
                outs = [o for o in outs if o not in body_out] + else_out
            if stmt.finalbody:
                outs = self.seq(stmt.finalbody, outs or [nid], loops)
            return outs
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.edge(nid, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            if loops:
                loops[-1].breaks.append(nid)
            return []
        if isinstance(stmt, ast.Continue):
            if loops:
                loops[-1].continues.append(nid)
            return []
        return [nid]


def build_cfg(func: ast.AST) -> CFG:
    """CFG over ``func``'s own statements (a FunctionDef / AsyncFunctionDef)."""
    b = _Builder()
    frontier = b.seq(func.body, [b.cfg.entry], [])
    for p in frontier:
        b.edge(p, b.cfg.exit)
    return b.cfg


def map_statements(func: ast.AST) -> Dict[int, ast.stmt]:
    """id(any owned expression node) -> its enclosing own-scope statement.

    Compound statements map their headers (test/iter expressions) to the
    compound node itself; nested function bodies are not entered.
    """
    mapping: Dict[int, ast.stmt] = {}

    def claim(stmt: ast.stmt, node: ast.AST) -> None:
        mapping[id(node)] = stmt
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                continue  # statements claim themselves
            claim(stmt, child)

    def walk_body(stmts) -> None:
        for stmt in stmts:
            mapping[id(stmt)] = stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes own their statements
            # Header expressions (If.test, For.iter, ...) belong to the stmt.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    continue  # statements claim themselves; handlers below
                claim(stmt, child)
            for name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, name, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    walk_body(sub)
            for handler in getattr(stmt, "handlers", ()) or ():
                if handler.type is not None:
                    claim(stmt, handler.type)
                walk_body(handler.body)

    walk_body(func.body)
    return mapping
