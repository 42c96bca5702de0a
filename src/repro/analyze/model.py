"""The shared project model every analyzer pass consumes.

One :class:`Project` holds the parsed AST of every module under the
analyzed roots and, per module, its functions (methods and nested defs
included) with their qualified names.  The model is purely per-module:
it resolves no calls and follows no imports.  A file that does not
parse is an error (:class:`ParseError`, naming ``file:line``), never
silently left out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional


class ParseError(Exception):
    """An analyzed file is not valid Python; the message starts ``file:line:``."""


def owned_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Every AST node belonging to ``root``'s own scope.

    Nested ``def``/``async def``/``lambda`` nodes are *yielded* (so a
    caller can see that they exist) but not *entered* — their bodies
    belong to their own :class:`FunctionInfo`.  Comprehension scopes are
    treated as part of the owner (close enough for every rule we run).
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class FunctionInfo:
    """One function, method, or nested def in a module."""

    qualname: str                     # "fn", "Class.method", "fn.<locals>.inner"
    node: ast.AST                     # FunctionDef | AsyncFunctionDef


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str                          # as given on the command line / root walk
    tree: ast.Module
    functions: List[FunctionInfo] = field(default_factory=list)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleInfo":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
        mod = cls(path=path, tree=tree)
        mod._collect_functions(tree, prefix="")
        return mod

    def _collect_functions(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._collect_functions(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                self.functions.append(FunctionInfo(qualname, child))
                self._collect_functions(child, f"{qualname}.<locals>.")


class Project:
    """The parsed modules under the analyzed roots."""

    def __init__(self, modules: Iterable[ModuleInfo] = ()) -> None:
        self.modules: List[ModuleInfo] = list(modules)

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Project":
        """Parse every ``.py`` file under the given files/directories."""
        files: List[Path] = []
        for root in map(Path, paths):
            files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
        return cls(ModuleInfo.parse(f.read_text(), str(f)) for f in files)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build a project from in-memory ``{path: source}`` (tests)."""
        return cls(ModuleInfo.parse(source, path) for path, source in sources.items())
