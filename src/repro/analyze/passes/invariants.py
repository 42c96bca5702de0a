"""The repo-invariant rules: per-module AST checks of project conventions.

``wallclock``
    No ``time.time``/``monotonic``/``perf_counter``, ``datetime.now``,
    ``random.*`` or ``numpy.random`` inside the deterministic core
    (``src/repro/{sim,cuda,partitioned,mpi,hw}``).  The engine's determinism
    contract (``sim/engine.py``) forbids wall-clock and ambient RNG.
``raw-units``
    Numeric literals that *are* unit constants (``1e-3``, ``1e-6``,
    ``1e-9``, ``1024**2``, ``1024**3``) must be written with the
    :mod:`repro.units` helpers (``ms``/``us``/``ns``/``MiB``/``GiB``)
    in the deterministic core.
``module-ownership``
    Each construct in :data:`OWNERSHIP` belongs to the modules that have
    one of its owners among their path components; anywhere else it is
    flagged:

    * ``start_transfer`` calls and imports outside ``dataplane``/``hw`` —
      every simulated byte moves through the dataplane (DESIGN.md §12);
    * ``World``/``ClusterJob`` construction outside
      ``workload``/``mpi``/``shard`` — drivers launch through the
      Workload contract (§15);
    * writes to link health (``up``/``bandwidth``/``base_bandwidth``, and
      ``epoch``/``armed`` on a ``state``/``link_state`` receiver) outside
      ``hw`` — only the LinkState API bumps the fabric epoch that
      revalidates route caches and captured plans (§17) — and to
      ``outstanding_bytes`` outside ``hw``, where the link transfer
      charges and discharges it;
    * shard internals (``engine``/``fabric``/``mailbox``/``bridge``/
      ``procs``/``_*``) on a shard-shaped receiver outside ``shard`` —
      only ShardMessages cross shard boundaries (§14);
    * ``print`` in the deterministic core outside ``cli.py`` modules —
      instrumentation goes through the :mod:`repro.obs` bus (§10).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analyze.model import ModuleInfo, Project, dotted_name
from repro.analyze.rules import Finding, Pass, Rule

FAMILY = "invariant"

WALLCLOCK = "wallclock"
RAW_UNITS = "raw-units"
MODULE_OWNERSHIP = "module-ownership"

RULES: Dict[str, Rule] = {
    WALLCLOCK: Rule(
        WALLCLOCK, FAMILY,
        "no wall-clock / ambient randomness in src/repro/{sim,cuda,partitioned,mpi,hw}",
    ),
    RAW_UNITS: Rule(
        RAW_UNITS, FAMILY,
        "unit-magnitude literals must use repro.units helpers (us, MiB, ...)",
    ),
    MODULE_OWNERSHIP: Rule(
        MODULE_OWNERSHIP, FAMILY,
        "constructs stay inside their owning packages: start_transfer "
        "(dataplane, hw), World/ClusterJob construction (workload, mpi, "
        "shard), link-health writes (hw), shard internals (shard), "
        "print in the core (cli modules)",
    ),
}

#: Packages whose modules the core-scoped checks apply to.
CORE_PACKAGES = ("sim", "cuda", "partitioned", "mpi", "hw")

#: A checker returns ``(node, message)`` for each violation in one module.
Checker = Callable[[ModuleInfo], Iterable[Tuple[ast.AST, str]]]


def _in_core(path: Path) -> bool:
    parts = path.parts
    if "repro" not in parts:
        return False
    last = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[last + 1:]
    return bool(tail) and tail[0] in CORE_PACKAGES


# -- wallclock ---------------------------------------------------------------

_WALLCLOCK_ATTRS = {
    "time": {"time", "monotonic", "perf_counter", "process_time", "time_ns",
             "monotonic_ns", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
}


def _wallclock(mod: ModuleInfo) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(mod.tree):
        what = None
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None or "." not in dotted:
                continue
            root, *rest = dotted.split(".")
            if root in _WALLCLOCK_ATTRS and rest[-1] in _WALLCLOCK_ATTRS[root]:
                what = f"call to {dotted}"
            elif root == "random" or (root in ("np", "numpy") and rest[0] == "random"):
                what = f"use of {dotted}"
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "time" and names & _WALLCLOCK_ATTRS["time"]:
                what = "import of wall-clock time functions"
            elif node.module == "random":
                what = "import from random"
        elif isinstance(node, ast.Import):
            if any(a.name == "random" for a in node.names):
                what = "import random"
        if what is not None:
            yield node, (
                f"{what} breaks the engine's determinism contract; derive time "
                "from Engine.now and randomness from an explicit seeded RNG"
            )


# -- raw-units ---------------------------------------------------------------

_UNIT_FLOATS = {1e-3: "ms", 1e-6: "us", 1e-9: "ns"}
_UNIT_INTS = {1024 ** 2: "MiB", 1024 ** 3: "GiB"}


def _raw_units(mod: ModuleInfo) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(mod.tree):
        unit = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            unit = _UNIT_FLOATS.get(node.value)
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and node.left.value == 1024
        ):
            unit = _UNIT_INTS.get(1024 ** node.right.value)
        if unit is not None:
            yield node, f"raw literal where repro.units.{unit} reads as the paper writes it"


# -- module-ownership --------------------------------------------------------

#: Construct kinds an ownership row can reserve.
CALL, IMPORT, WRITE, SHARD_ATTR = "call", "import", "write", "shard-attr"


@dataclass(frozen=True)
class Ownership:
    """One ``module-ownership`` row: a construct and the packages owning it.

    ``names`` match the construct's key: the callee, imported or
    attribute name; ``receiver.attr`` for a write through a receiver so
    named; or a ``prefix*`` pattern.
    """

    owners: Tuple[str, ...]     # path components whose modules may use it
    kind: str                   # CALL | IMPORT | WRITE | SHARD_ATTR
    names: Tuple[str, ...]
    why: str
    core_only: bool = False     # checked only inside CORE_PACKAGES


_VIA_DATAPLANE = (
    "bypasses the dataplane — submit a descriptor via "
    "fabric.dataplane.put/rma_put/control so path policy and the "
    "per-class ledger see the traffic (DESIGN.md §12)"
)
_VIA_LINK_STATE = (
    "mutates fabric link state directly — go through the LinkState API "
    "(down_link/restore_link/degrade_bandwidth) so the fabric epoch bumps "
    "and route caches/captured plans revalidate (DESIGN.md §17)"
)

OWNERSHIP: Tuple[Ownership, ...] = (
    Ownership(("dataplane", "hw"), CALL, ("start_transfer",), _VIA_DATAPLANE),
    Ownership(("dataplane", "hw"), IMPORT, ("start_transfer",), _VIA_DATAPLANE),
    Ownership(
        ("workload", "mpi", "shard"), CALL, ("World", "ClusterJob"),
        "bypasses the Workload contract — launch ranks via "
        "repro.workload.runner.run_ranks or run a registered Workload "
        "(DESIGN.md §15)",
    ),
    Ownership(
        ("hw",), WRITE,
        ("up", "bandwidth", "base_bandwidth", "state.epoch", "state.armed",
         "link_state.epoch", "link_state.armed"),
        _VIA_LINK_STATE,
    ),
    Ownership(
        ("hw",), WRITE, ("outstanding_bytes",),
        "writes the per-link congestion signal — only the link transfer "
        "(hw/links.py:_Transfer) charges a route's outstanding_bytes when "
        "it starts and discharges them when it ends (DESIGN.md §17)",
    ),
    Ownership(
        ("shard",), SHARD_ATTR,
        ("engine", "fabric", "mailbox", "bridge", "procs", "_*"),
        "reaches into shard-private state — only ShardMessages cross shard "
        "boundaries; go through Shard.put/recv or the driver surface "
        "(step_window/next_time/results) (DESIGN.md §14)",
    ),
    Ownership(
        ("cli.py",), CALL, ("print",),
        "in the deterministic core — publish an event on the repro.obs "
        "bus (or move output to a cli module)",
        core_only=True,
    ),
)


def _shard_receiver(recv: ast.AST) -> Optional[str]:
    """Label for a shard-shaped receiver: a name that is or ends with
    ``shard``, a ``shards[...]`` element, or a ``.shard`` attribute."""
    if isinstance(recv, ast.Name):
        if recv.id == "shard" or recv.id.endswith("_shard"):
            return recv.id
    elif isinstance(recv, ast.Subscript):
        base = recv.value
        if isinstance(base, ast.Name) and base.id == "shards":
            return "shards[...]"
        if isinstance(base, ast.Attribute) and base.attr == "shards":
            return f"{dotted_name(base) or 'shards'}[...]"
    elif isinstance(recv, ast.Attribute) and recv.attr == "shard":
        return dotted_name(recv) or "<...>.shard"
    return None


def _constructs(node: ast.AST) -> Iterator[Tuple[str, Tuple[str, ...], str]]:
    """``(kind, keys, label)`` for every ownable construct at ``node``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            yield CALL, (func.id,), f"{func.id}() call"
        elif isinstance(func, ast.Attribute):
            yield CALL, (func.attr,), f"{dotted_name(func) or func.attr}() call"
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            yield IMPORT, (alias.name,), f"import of {alias.name}"
    elif isinstance(node, ast.Attribute):
        attr = node.attr
        if isinstance(node.ctx, ast.Store):
            recv = node.value
            keys: Tuple[str, ...] = (attr,)
            if isinstance(recv, ast.Name):
                keys += (f"{recv.id}.{attr}",)
            elif isinstance(recv, ast.Attribute):
                keys += (f"{recv.attr}.{attr}",)
            yield WRITE, keys, f"write to {dotted_name(node) or '.' + attr}"
        shard = _shard_receiver(node.value)
        if shard is not None:
            yield SHARD_ATTR, (attr,), f"{shard}.{attr}"


def _matches(keys: Tuple[str, ...], names: Tuple[str, ...]) -> bool:
    return any(
        key == name or (name.endswith("*") and key.startswith(name[:-1]))
        for key in keys
        for name in names
    )


def _module_ownership(mod: ModuleInfo) -> Iterator[Tuple[ast.AST, str]]:
    path = Path(mod.path)
    parts, core = set(path.parts), _in_core(path)
    rows = [
        row for row in OWNERSHIP
        if parts.isdisjoint(row.owners) and (core or not row.core_only)
    ]
    if not rows:
        return
    for node in ast.walk(mod.tree):
        for kind, keys, label in _constructs(node):
            for row in rows:
                if row.kind == kind and _matches(keys, row.names):
                    yield node, f"{label} {row.why}"


# -- the pass ----------------------------------------------------------------

#: rule id -> (checked only inside CORE_PACKAGES?, checker)
_CHECKS: Dict[str, Tuple[bool, Checker]] = {
    WALLCLOCK: (True, _wallclock),
    RAW_UNITS: (True, _raw_units),
    MODULE_OWNERSHIP: (False, _module_ownership),
}


def run(project: Project, enabled: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for mod in project.modules:
        path = Path(mod.path)
        if path.name == "units.py":
            continue  # the units helpers *define* the raw literals
        core = _in_core(path)
        for rid in enabled:
            core_only, check = _CHECKS[rid]
            if core or not core_only:
                findings += [
                    Finding(rid, mod.path, node.lineno, message)
                    for node, message in check(mod)
                ]
    return findings


PASS = Pass(family=FAMILY, rules=RULES, run=run)
