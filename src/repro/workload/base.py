"""The Workload contract: one driver shape for every scenario.

A :class:`Workload` declares a name, a default machine, and an
``_execute`` body; :meth:`Workload.run` supplies everything around it —
machine resolution (a name or a :class:`~repro.hw.spec.schema.MachineSpec`),
path-policy selection, ``events_popped`` accounting against the module
:data:`~repro.sim.engine.STATS` totals, and the SHA-256 series digest —
and returns a typed :class:`WorkloadResult`.

Every pre-existing driver in the repo (fig2–fig11/table1, the Jacobi and
DL apps, the shard workloads, the bench suite entries) is a Workload; the
legacy entry points are thin shims over the registry.  The same contract
feeds ``python -m repro sweep`` (grid runs with a content-addressed
result cache) and the trace-replay frontend (:mod:`repro.workload.
replay`).

Determinism accounting: ``STATS`` is a :class:`~repro.sim.engine.Counters`
instance to which every ``Engine.run`` adds its pops as it exits (a
forked cluster worker's are absorbed when it finishes).  ``run`` never
calls ``STATS.reset()`` — it takes a snapshot *delta*, so a workload can
run inside harnesses that own the counters (``python -m repro bench``
resets around entries) without perturbing them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.bench.series import Series
from repro.dataplane.policy import policy_by_name
from repro.hw.faults import FaultSchedule
from repro.hw.spec.schema import MachineSpec
from repro.sim.engine import STATS
from repro.sim.run import run_scope


class WorkloadError(Exception):
    """A workload was misconfigured or asked to run somewhere it cannot."""


#: Path-policy axis values (``PathPolicy.name`` strings); None inherits
#: the enclosing fabric-settings scope (single-path by default).
POLICY_NAMES = ("single", "multi", "congestion")


# --------------------------------------------------------------------------
# canonical hashing (shared with the sweep cache)
# --------------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr for leftovers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def series_to_dict(series: Series) -> dict:
    """JSON-safe view of a Series (the shape the seed fixture pins)."""
    return {
        "exhibit": series.exhibit,
        "title": series.title,
        "columns": list(series.columns),
        "rows": series.rows,
        "notes": series.notes,
    }


def series_from_dict(doc: dict) -> Series:
    return Series(
        exhibit=doc["exhibit"], title=doc["title"], columns=list(doc["columns"]),
        rows=[dict(r) for r in doc["rows"]], notes=list(doc["notes"]),
    )


def series_digest(series: Series) -> str:
    """SHA-256 over the canonical JSON of the series content."""
    return sha256_hex(canonical_json(series_to_dict(series)))


# --------------------------------------------------------------------------
# machine + policy resolution
# --------------------------------------------------------------------------

def resolve_machine_arg(machine: Union[str, MachineSpec]) -> MachineSpec:
    """A machine name (catalog or generator grammar) or a MachineSpec."""
    if isinstance(machine, str):
        from repro.hw.spec.generators import resolve_machine

        return resolve_machine(machine)
    return machine


def _fits(default: Any, value: Any) -> bool:
    """May ``value`` stand for a parameter defaulting to ``default``?"""
    if isinstance(default, tuple):  # a list of items like its first
        return isinstance(value, (tuple, list)) and all(_fits(default[0], v) for v in value)
    if type(default) is int:  # not a bool
        return type(value) is int
    return isinstance(value, type(default))


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

@dataclass
class ExecOutcome:
    """What a workload body hands back to :meth:`Workload.run`."""

    series: Series
    mode: str = "world"                     # "world" | "sequential" | "mp"
    class_bytes: Dict[str, Any] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class WorkloadResult:
    """One workload run: the series, its digests, and the run counters."""

    workload: str
    machine: str
    policy: str                 # "single" / "multi" / "default"
    mode: str
    series: Series
    digests: Dict[str, str]     # always includes "series"
    events_popped: int
    class_bytes: Dict[str, Any]
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        # Round-tripped through canonical JSON so the view is identical
        # whether it came from a live run or a sweep-cache file (tuples
        # become lists, int dict keys become strings, in both).
        return json.loads(canonical_json({
            "workload": self.workload,
            "machine": self.machine,
            "policy": self.policy,
            "mode": self.mode,
            "series": series_to_dict(self.series),
            "digests": dict(self.digests),
            "events_popped": self.events_popped,
            "class_bytes": self.class_bytes,
            "extra": self.extra,
        }))

    @classmethod
    def from_dict(cls, doc: dict) -> "WorkloadResult":
        return cls(
            workload=doc["workload"], machine=doc["machine"],
            policy=doc["policy"], mode=doc["mode"],
            series=series_from_dict(doc["series"]), digests=dict(doc["digests"]),
            events_popped=doc["events_popped"], class_bytes=doc["class_bytes"],
            extra=doc.get("extra", {}),
        )


# --------------------------------------------------------------------------
# the contract
# --------------------------------------------------------------------------

class Workload:
    """Base class: subclass, set ``name``/``default_machine``, implement
    :meth:`_execute` returning an :class:`ExecOutcome`.

    ``default_machine`` may be a MachineSpec or a resolvable name; ``None``
    means the workload binds its own canonical machines internally (the
    multi-machine paper exhibits) and ignores overrides it was not given.
    """

    name: str = ""
    default_machine: Optional[Union[str, MachineSpec]] = None
    #: Default parameters, merged under explicit ``run(**params)``;
    #: also the parameter half of :meth:`fingerprint`.  Its keys are the
    #: only parameters ``run`` accepts.
    defaults: Dict[str, Any] = {}
    #: Paper exhibits only: ``{"smoke" | "bench" | "full": params}``, the
    #: one declaration of the points their smoke test, claims and
    #: RESULTS.md run at.
    points: Dict[str, Dict[str, Any]]
    #: Whether ``shards=N`` (the multiprocessing executor) is meaningful.
    supports_shards: bool = False

    # -- cache identity -----------------------------------------------------
    def fingerprint(self, **params: Any) -> dict:
        """Content identity for the sweep cache (machine/policy hashed
        separately).  Override to fold in external content (replay does,
        with the schedule digest)."""
        return {"workload": self.name, "params": {**self.defaults, **params}}

    # -- execution ----------------------------------------------------------
    def resolve_machine(
        self, machine: Optional[Union[str, MachineSpec]]
    ) -> Optional[MachineSpec]:
        if machine is None:
            machine = self.default_machine
        if machine is None:
            return None
        return resolve_machine_arg(machine)

    def run(
        self,
        machine: Optional[Union[str, MachineSpec]] = None,
        policy: Optional[str] = None,
        shards: Optional[int] = None,
        faults: Optional[Any] = None,
        **params: Any,
    ) -> WorkloadResult:
        """Run on ``machine`` under ``policy``; returns a WorkloadResult.

        ``shards=N`` routes shard-capable workloads through the
        multiprocessing executor (results are pinned bit-identical to the
        sequential driver, DESIGN.md §14).

        ``policy`` and ``faults`` reach every fabric the workload builds
        through one :func:`~repro.sim.run.run_scope`; ``None`` inherits
        the enclosing run (single-path, no faults by default).  ``faults``
        plugs a :class:`~repro.hw.faults.FaultSchedule` (or a JSONL path,
        loaded here) into the run: each fabric installs the schedule's
        link mutations on its own timeline (DESIGN.md §17); without one
        the fabric stays immutable and the run's outputs bit-identical to
        a build without the fault layer.
        """
        unknown = sorted(params.keys() - self.defaults.keys())
        if unknown:
            raise WorkloadError(f"workload {self.name!r} has no parameter {', '.join(unknown)}; "
                                f"known: {', '.join(self.defaults) or 'none'}")
        for key, value in params.items():
            if not _fits(self.defaults[key], value):
                raise WorkloadError(f"workload {self.name!r}: parameter {key} wants a value "
                                    f"like {self.defaults[key]!r}, got {value!r}")
        resolved = self.resolve_machine(machine)
        if shards is not None and not self.supports_shards:
            raise WorkloadError(
                f"workload {self.name!r} runs on a single engine; "
                "shards=N applies to cluster workloads only"
            )
        if policy is not None:
            try:
                policy_by_name(policy)  # fail before any fabric is built
            except ValueError as exc:
                raise WorkloadError(str(exc)) from exc
        merged = {**self.defaults, **params}
        if isinstance(faults, str):
            faults = FaultSchedule.load(faults)
        with run_scope(policy=policy, faults=faults):
            before = STATS.snapshot()["events_popped"]
            outcome = self._execute(resolved, shards, **merged)
            popped = STATS.snapshot()["events_popped"] - before
        digests = {"series": series_digest(outcome.series), **outcome.digests}
        return WorkloadResult(
            workload=self.name,
            machine=resolved.name if resolved is not None else "exhibit-canonical",
            policy=policy if policy is not None else "default",
            mode=outcome.mode,
            series=outcome.series,
            digests=digests,
            events_popped=popped,
            class_bytes=outcome.class_bytes,
            extra=outcome.extra,
        )

    def _execute(
        self, machine: Optional[MachineSpec], shards: Optional[int], **params: Any
    ) -> ExecOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
