"""The four hostbench workloads and how their outputs are checked.

Each workload has a ``prepare(seed)`` step, which does the set-up a user
pays before the first simulated event (workload lookup, schedule
generation and validation, machine resolution) and returns the *steps*
of one unit: named ``Workload.run`` calls, each returning a
``WorkloadResult``.  :func:`fingerprint` reduces a unit's results to the
values that must repeat exactly: series, message, step and schedule
digests, ``t_end`` and the event-loop counters.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.p2p import TWO_NODE_PAIR
from repro.dataplane.graph import GRAPHS
from repro.hw.faults import FaultSchedule
from repro.hw.params import ONE_NODE
from repro.hw.spec.generators import resolve_machine
from repro.hw.topology import Fabric
from repro.mpi.world import World
from repro.sim.engine import STATS, Engine
from repro.workload.generators import (
    expert_parallel_schedule,
    llm_schedule,
    parameter_server_schedule,
)
from repro.workload.registry import get
from repro.workload.replay import ReplayWorkload

#: Node 3 of the fat-tree loses one NVLink mesh hop halfway through the
#: halo run.  Kept here rather than read from ``examples/`` so that the
#: benchmark owns its inputs.
HALO_FAULTS = '{"t": 6e-05, "link": "nvl0->1", "action": "down", "node": 3}\n'


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``prepare(seed)`` returns ``{"steps": [(label, workload, params)],
    #: "build": fn}``: a unit calls ``workload.run(**params)`` for each
    #: step in order, and ``build()`` constructs the workload's machines.
    prepare: Callable[[int], dict]
    #: Runs whose inputs do not depend on the seed; None = all of them.
    fixed_runs: Optional[Tuple[str, ...]] = None


def _exhibits(machines: tuple, **runs: dict) -> Callable[[int], dict]:
    """``prepare`` for fixed paper-exhibit runs: ``runs`` maps exhibit -> params."""
    def prepare(seed: int) -> dict:
        return {
            "steps": [(name, get(name), params) for name, params in runs.items()],
            "build": lambda: [World(m) for m in machines],
        }
    return prepare


def cluster_schedules(seed: int) -> list:
    """Three replay schedules whose sizes and compute times come from ``seed``.

    The shapes (ranks, steps, peers) are fixed so every seed asks the
    simulator for about the same host work; the seed moves byte counts
    and compute durations, and with them every timestamp and digest.
    """
    rng = random.Random(seed)

    def pick(options):
        return options[int(rng.random() * len(options))]

    return [
        llm_schedule(
            dp=2, tp=4, pp=2, microbatches=2,
            hidden=pick((512, 768, 1024, 1536)), seq=pick((256, 512, 1024)),
            compute_us_per_layer=30.0 + 50.0 * rng.random(), name="llm",
        ),
        expert_parallel_schedule(
            ranks=16, steps=1, token_bytes=pick((64, 128, 256, 384)) * 1024,
            expert_us=60.0 + 60.0 * rng.random(),
            router_us=15.0 + 30.0 * rng.random(), name="moe",
        ),
        parameter_server_schedule(
            workers=14, servers=2, steps=2,
            grad_bytes=pick((256, 512, 1024, 2048)) * 1024,
            compute_us=80.0 + 80.0 * rng.random(),
            update_us=20.0 + 40.0 * rng.random(), name="ps",
        ),
    ]


def _cluster_prepare(seed: int) -> dict:
    spec = resolve_machine("fat-tree-512")
    faults = FaultSchedule.parse_jsonl(HALO_FAULTS, source="hostbench-halo-faults")
    steps = [
        ("allreduce-node", get("allreduce-node"), {"machine": spec, "iters": 1}),
        ("halo-faulted", get("halo"),
         {"machine": spec, "faults": faults, "iters": 4, "chunks": 2}),
    ]
    # One run per schedule, under the default single-path policy.  At these
    # message sizes (all below ``MultiPathPolicy.min_stripe_bytes``, 4 MiB)
    # the ``multi`` and ``congestion`` policies produce the same outputs
    # from the same work, so repeating a schedule under them adds nothing.
    steps += [(sched.name, ReplayWorkload(sched), {"machine": spec})
              for sched in cluster_schedules(seed)]
    return {"steps": steps, "build": lambda: [Fabric(Engine(), spec)]}


#: Why each workload exists: see README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("partitioned-sweep",
                 _exhibits((ONE_NODE, TWO_NODE_PAIR), fig4={}, fig5={}, table1={})),
        Workload("jacobi-eager",
                 _exhibits((ONE_NODE,), fig8={"multipliers": (1, 4), "iters": 60})),
        Workload("allreduce-payload", _exhibits((ONE_NODE,), fig6={"grids": (2048,)})),
        Workload("cluster-512", _cluster_prepare,
                 fixed_runs=("allreduce-node", "halo-faulted")),
    )
}


# -- output fingerprints -------------------------------------------------------------

def reset_counters() -> None:
    """Zero the process-wide event-loop and graph counters before a unit."""
    STATS.reset()
    GRAPHS.reset()


def fingerprint(results: dict) -> dict:
    """The values of one unit that must repeat exactly (JSON-normalised).

    Read right after the unit, while ``STATS``/``GRAPHS`` still hold its
    counters.  Per-shard step digests fold into one ``steps`` digest.
    """
    runs = {}
    for label, res in results.items():
        digests = {k: v for k, v in res.digests.items() if not k.startswith("steps_")}
        steps = sorted((k, v) for k, v in res.digests.items() if k.startswith("steps_"))
        if steps:
            digests["steps"] = hashlib.sha256(json.dumps(steps).encode()).hexdigest()
        sig = res.extra.get("signature")
        t_end = sig["t_end"] if sig is not None else res.extra.get("t_end")
        run = {"digests": digests, "events_popped": res.events_popped}
        if t_end is not None:
            run["t_end"] = t_end
        runs[label] = run
    stats = STATS.snapshot()
    return json.loads(json.dumps({
        "runs": runs,
        "sim": {k: stats[k] for k in (
            "events_popped", "events_coalesced", "events_graphed", "peak_heap")},
        "graphs": GRAPHS.snapshot(),
    }))


def check(workload: Workload, seed: int, fp: dict, expected: dict) -> List[str]:
    """Differences between ``fp`` and the pinned seed-0 fingerprint.

    At seed 0 everything is compared.  At another seed only the runs whose
    inputs ignore the seed are; the caller also compares every unit with
    the process's first one.
    """
    pinned = expected.get(workload.name)
    if pinned is None:
        return [f"{workload.name}: no pinned fingerprint in expected.json"]
    if seed != 0 and workload.fixed_runs is not None:
        fp = {"runs": {k: fp["runs"].get(k) for k in workload.fixed_runs}}
        pinned = {"runs": {k: pinned["runs"].get(k) for k in workload.fixed_runs}}
    return diff(pinned, fp)


def diff(want: dict, got: dict, path: str = "") -> List[str]:
    """Human-readable differences between two fingerprints."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            out += diff(want.get(key), got.get(key), f"{path}/{key}")
        return out
    return [] if want == got else [f"{path or '/'}: want {want!r}, got {got!r}"]
