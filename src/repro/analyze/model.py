"""The shared project model every analyzer pass consumes.

One :class:`Project` holds the parsed AST of every module under the
analyzed roots, a per-module symbol table (local defs + ``from X import
Y`` edges into other project modules), the set of functions (including
methods and nested defs) with generator-ness precomputed, and
best-effort call resolution.

Resolution is deliberately *syntactic*: a bare-name call resolves to a
module-level function of the same module or to a name imported from
another analyzed module; ``self.m(...)`` / ``cls.m(...)`` resolves to a
method of the lexically enclosing class.  Anything else (duck-typed
attributes, inheritance, higher-order plumbing) resolves to ``None`` and
the passes treat it as unknown — the framework over-approximates only
where a rule explicitly chooses to (DESIGN.md §13).  A file that does not
parse is an error (:class:`ParseError`, naming ``file:line``), never
silently left out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class ParseError(Exception):
    """An analyzed file is not valid Python; the message starts ``file:line:``."""


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None


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


@dataclass
class FunctionInfo:
    """One function, method, or nested def in the project."""

    module: "ModuleInfo"
    qualname: str                     # "fn", "Class.method", "fn.<locals>.inner"
    node: ast.AST                     # FunctionDef | AsyncFunctionDef
    cls: Optional[str]                # lexically enclosing class, if a method
    is_generator: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def path(self) -> str:
        return self.module.path

    def owned(self) -> Iterator[ast.AST]:
        return owned_nodes(self.node)

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.module.name}:{self.qualname}>"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str                          # as given on the command line / root walk
    name: str                          # dotted module name ("repro.sim.engine")
    tree: ast.Module
    source: str
    functions: List[FunctionInfo] = field(default_factory=list)
    #: module-level function defs + imported names:
    #:   name -> ("func", FunctionInfo) | ("import", module_dotted, orig_name)
    symbols: Dict[str, Tuple] = field(default_factory=dict)
    #: (class name, method name) -> FunctionInfo, for directly-nested methods
    methods: Dict[Tuple[str, str], FunctionInfo] = field(default_factory=dict)
    #: line -> None (suppress all) | set of rule ids (see repro.analyze.suppress)
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    def __hash__(self) -> int:
        return id(self)


class Project:
    """Module table + symbol tables + functions over the analyzed roots."""

    def __init__(self) -> None:
        self.modules: List[ModuleInfo] = []
        self.by_name: Dict[str, ModuleInfo] = {}
        self.functions: List[FunctionInfo] = []

    # -- loading -------------------------------------------------------------
    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Project":
        """Parse every ``.py`` file under the given files/directories.

        Dotted module names are derived from the filesystem layout: a
        root directory that is itself a package (holds ``__init__.py``)
        contributes its own name as the leading package segment.
        """
        from repro.analyze.suppress import scan_suppressions

        project = cls()
        for root in paths:
            root = Path(root)
            if root.is_dir():
                files = sorted(root.rglob("*.py"))
                base = root if (root / "__init__.py").exists() else None
            else:
                files, base = [root], None
            for f in files:
                if base is not None:
                    rel = f.relative_to(base.parent)
                else:
                    rel = Path(f.name)
                name = ".".join(rel.with_suffix("").parts)
                if name.endswith(".__init__"):
                    name = name[: -len(".__init__")]
                source = f.read_text()
                mod = ModuleInfo(
                    path=str(f), name=name, tree=_parse(source, str(f)), source=source
                )
                mod.suppressions = scan_suppressions(source)
                project._index_module(mod)
        return project

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build a project from in-memory ``{path: source}`` (tests)."""
        from repro.analyze.suppress import scan_suppressions

        project = cls()
        for path, source in sources.items():
            name = ".".join(Path(path).with_suffix("").parts)
            mod = ModuleInfo(path=path, name=name, tree=_parse(source, path), source=source)
            mod.suppressions = scan_suppressions(source)
            project._index_module(mod)
        return project

    # -- indexing ------------------------------------------------------------
    def _index_module(self, mod: ModuleInfo) -> None:
        self.modules.append(mod)
        self.by_name[mod.name] = mod
        self._collect_functions(mod, mod.tree, prefix="", cls=None, top=True)
        for fi in mod.functions:
            fi.is_generator = any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in fi.owned()
            )
        # Imports anywhere in the module (function-local imports included).
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    mod.symbols.setdefault(
                        bound, ("import", node.module, alias.name)
                    )

    def _collect_functions(
        self, mod: ModuleInfo, node: ast.AST, prefix: str, cls: Optional[str], top: bool
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                sub = f"{prefix}{child.name}."
                self._collect_functions(mod, child, sub, cls=child.name, top=False)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = FunctionInfo(
                    module=mod, qualname=f"{prefix}{child.name}", node=child, cls=cls
                )
                mod.functions.append(fi)
                self.functions.append(fi)
                if top:
                    mod.symbols[child.name] = ("func", fi)
                if cls is not None and prefix.endswith(f"{cls}."):
                    mod.methods[(cls, child.name)] = fi
                self._collect_functions(
                    mod, child, f"{prefix}{child.name}.<locals>.", cls=None, top=False
                )

    # -- resolution ----------------------------------------------------------
    def resolve_name(self, mod: ModuleInfo, name: str) -> Optional[FunctionInfo]:
        """A bare-name reference in ``mod`` -> project function, if any."""
        sym = mod.symbols.get(name)
        if sym is None:
            return None
        if sym[0] == "func":
            return sym[1]
        _tag, target_module, orig = sym
        target = self.by_name.get(target_module)
        if target is None:
            return None
        tsym = target.symbols.get(orig)
        if tsym is not None and tsym[0] == "func":
            return tsym[1]
        return None

    def resolve_call(
        self, caller: FunctionInfo, func: ast.AST
    ) -> Optional[FunctionInfo]:
        """Resolve a Call's ``func`` expression to a project function."""
        if isinstance(func, ast.Name):
            return self.resolve_name(caller.module, func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller.cls is not None
        ):
            return caller.module.methods.get((caller.cls, func.attr))
        return None
