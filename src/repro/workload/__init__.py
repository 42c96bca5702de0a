"""repro.workload — one Workload contract for every driver.

A :class:`~repro.workload.base.Workload` declares what it needs (machine,
path policy, parameters) and emits a typed
:class:`~repro.workload.base.WorkloadResult` (series + SHA-256 digests +
run counters).  The registry holds every built-in workload — the paper
exhibits (fig2–fig11, table1), the bench micro-workloads (pingpong,
p2p-point, striping, fault-reroute, congestion, jacobi, dl), the
cluster workloads (halo,
allreduce-node) — loaded lazily on first :func:`get`/:func:`names`
lookup; ``replay:<schedule.jsonl>`` resolves any trace-replay schedule
(:mod:`repro.workload.replay`).

``python -m repro sweep`` runs (workload × machine × policy) grids over
this registry with a content-addressed result cache
(:mod:`repro.workload.sweep`).
"""

from repro.workload.base import (
    ExecOutcome,
    POLICY_NAMES,
    Workload,
    WorkloadError,
    WorkloadResult,
    canonical_json,
    series_digest,
    series_from_dict,
    series_to_dict,
    sha256_hex,
)
from repro.workload.registry import get, names, register, resolve_spec
from repro.workload.runner import RankRun, run_ranks

__all__ = [
    "ExecOutcome",
    "POLICY_NAMES",
    "RankRun",
    "Workload",
    "WorkloadError",
    "WorkloadResult",
    "canonical_json",
    "get",
    "names",
    "register",
    "resolve_spec",
    "run_ranks",
    "series_digest",
    "series_from_dict",
    "series_to_dict",
    "sha256_hex",
]
