"""``python -m repro bench``: the pinned simulator benchmark suite.

Each suite entry runs one workload and records the engine's event-loop
counters, all deterministic (host time is measured by ``hostbench/``,
not here):

* ``events_popped`` — heap events actually dispatched.  Deterministic for
  a given code state, so it is the regression metric: ``--against`` fails
  when an entry pops more than ``tolerance`` above its recorded baseline;
* ``events_coalesced`` — per-wave events the coalescing fast path avoided
  scheduling (DESIGN.md §11);
* ``peak_heap`` — high-water mark of the pending-event heap.

The suite mirrors the paper exhibits that dominate ``regenerate_results``
(a host ping-pong, decimated Fig 4/5 goodput sweeps, the single
131072-partition Fig 5 point, the Fig 8 Jacobi solve) plus the dataplane,
cluster and graph-replay workloads.  Each row also reports the named
deterministic metrics of the entry's :class:`~repro.workload.base.
WorkloadResult` (see :func:`metrics`).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dataplane.graph import GRAPHS
from repro.hw.spec.generators import fabric_metrics, resolve_machine
from repro.sim.engine import STATS
from repro.workload.generators import jacobi_schedule, llm_schedule
from repro.workload.registry import get
from repro.workload.replay import ReplayWorkload

#: Default tolerance for the --against gate: events_popped is exactly
#: reproducible, but small headroom keeps unrelated cost-model tweaks from
#: tripping the CI step.
DEFAULT_TOLERANCE = 0.05

#: Cluster-signature metrics shared by the sharded entries.
_CLUSTER = ("mode", "msg_digest", "t_end_us", "cluster_events_popped")
_GRAPH = _CLUSTER + ("events_graphed", "graph_launches", "pop_batching_factor")

#: entry -> (registered workload name, or a factory for an unregistered
#: replay; run params; the :func:`metrics` its row reports).  The graph
#: replays run in cluster graph mode: per-shard simulation moves onto
#: private graph engines (``events_graphed``) behind one host graph-launch
#: event per window; digests and ``t_end_us`` are bit-identical on the
#: exact (observed, eager) path.
SUITE: Dict[str, Tuple[object, dict, Tuple[str, ...]]] = {
    "pingpong": ("pingpong", {}, ("class_bytes",)),
    "fig4-decimated": ("fig4", {"grids": (1, 256, 32768)}, ()),
    "fig5-decimated": ("fig5", {"grids": (1, 256, 131072)}, ()),
    "fig5-131072-pe": ("p2p-point", {"grid": 131072, "model": "progression"}, ()),
    "fig8-jacobi": ("fig8", {"multipliers": (1, 4), "iters": 60}, ()),
    "striping-64MiB": (
        "striping", {},
        ("single_GBps", "multi_GBps", "stripes", "stripe_speedup", "class_bytes"),
    ),
    "cluster-fattree-512": (
        "halo", {"machine": "fat-tree-512", "iters": 4, "chunks": 2},
        ("mode", "workers", "windows", "messages", "msg_digest", "t_end_us",
         "lookahead_us", "bisection_bw_GBps", "cluster_events_popped",
         "per_shard_popped"),
    ),
    "graph-replay-jacobi": (
        lambda: ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10)),
        {"machine": "gh200-2x4"}, _GRAPH,
    ),
    "graph-replay-llm16": (
        lambda: ReplayWorkload(llm_schedule(dp=2, tp=2, pp=4, microbatches=2)),
        {"machine": "fat-tree-16-n4-l2"}, _GRAPH,
    ),
    "fault-reroute-512MiB": (
        "fault-reroute", {},
        ("healthy_us", "faulted_us", "single_us", "reroutes", "plan_hits"),
    ),
    "congestion-vs-single": (
        "congestion", {}, ("single_GBps", "congestion_GBps", "congestion_speedup"),
    ),
}


def metrics(res) -> dict:
    """A WorkloadResult flattened to the named values a suite row reports."""
    graphs = res.extra.get("graphs", {})
    view = {"mode": res.mode, "class_bytes": res.class_bytes, **res.extra, **graphs}
    sig = res.extra.get("signature")
    if sig is not None:
        popped = sig["events_popped"]
        graphed = graphs.get("events_graphed")
        fabric = fabric_metrics(resolve_machine(res.machine))
        view.update(
            messages=sig["messages"],
            msg_digest=sig["msg_digest"],
            t_end_us=round(sig["t_end"] * 1e6, 3),
            cluster_events_popped=popped,
            per_shard_popped=sig.get("per_shard_popped"),
            pop_batching_factor=round((graphed or popped) / popped, 2),
            lookahead_us=round(fabric["lookahead_s"] * 1e6, 3),
            bisection_bw_GBps=round(fabric["bisection_bw"] / 1e9, 1),
        )
    return view


def run_suite(
    names: Optional[Iterable[str]] = None, shards: Optional[int] = None
) -> Dict[str, dict]:
    """Run the selected entries; returns ``{entry: row}``.

    ``shards`` is the worker count for shard-capable entries (None = the
    pinned in-process sequential driver; results are identical).
    """
    results: Dict[str, dict] = {}
    for name in names or SUITE:
        if name not in SUITE:
            raise KeyError(f"unknown bench suite entry {name!r}; have {sorted(SUITE)}")
        workload, params, fields = SUITE[name]
        wl = get(workload) if isinstance(workload, str) else workload()
        STATS.reset()
        GRAPHS.reset()
        res = wl.run(shards=shards if wl.supports_shards else None, **params)
        snap = STATS.snapshot()
        snap.pop("events_cancelled", None)
        if not snap.get("events_graphed"):
            snap.pop("events_graphed", None)
        row = {**snap, "graph_launches": GRAPHS.launches}
        if GRAPHS.replanned:
            row["events_replanned"] = GRAPHS.replanned
        view = metrics(res)
        row.update((field, view[field]) for field in fields)
        results[name] = row
    return results


def _totals(results: Dict[str, dict]) -> dict:
    total = {"events_popped": 0, "events_coalesced": 0, "peak_heap": 0}
    for row in results.values():
        total["events_popped"] += row["events_popped"]
        total["events_coalesced"] += row["events_coalesced"]
        total["peak_heap"] = max(total["peak_heap"], row["peak_heap"])
    return total


def _check_against(results: Dict[str, dict], baseline: dict, tolerance: float) -> int:
    """Gate events_popped against a recorded baseline; returns exit code."""
    failures = 0
    recorded = baseline.get("suite", {})
    for name, row in results.items():
        base = recorded.get(name)
        if base is None:
            print(f"  {name}: no baseline entry (skipped)")
            continue
        ceiling = base["events_popped"] * (1.0 + tolerance)
        verdict = "ok" if row["events_popped"] <= ceiling else "REGRESSED"
        print(
            f"  {name}: events_popped {row['events_popped']} vs "
            f"baseline {base['events_popped']} (ceiling {ceiling:.0f}) -> {verdict}"
        )
        if verdict != "ok":
            failures += 1
    return 1 if failures else 0


def _baselines(directory: str) -> List[Tuple[int, str]]:
    """``(N, path)`` of every ``BENCH_pr<N>.json`` in ``directory``."""
    found = []
    for path in glob.glob(os.path.join(directory, "BENCH_pr*.json")):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if m:
            found.append((int(m.group(1)), path))
    return found


def next_pr(directory: str = ".") -> int:
    """One past the newest ``BENCH_pr<N>.json`` number: the default
    ``--pr``, so a bare run never overwrites a checked-in baseline."""
    return max((n for n, _ in _baselines(directory)), default=0) + 1


def resolve_baseline(spec: Optional[str], exclude: Optional[str] = None) -> Optional[str]:
    """Resolve an ``--against`` value to a baseline path.

    ``auto`` (or an explicit directory) picks the newest checked-in
    ``BENCH_pr<N>.json`` by PR number, skipping ``exclude`` — the file
    this run writes — so CI needs no hard-coded baseline name.
    """
    if spec is None:
        return None
    directory = "."
    if spec != "auto":
        if not os.path.isdir(spec):
            return spec
        directory = spec
    skip = os.path.realpath(exclude) if exclude else None
    candidates = [(n, path) for n, path in _baselines(directory)
                  if os.path.realpath(path) != skip]
    if not candidates:
        raise FileNotFoundError(
            f"--against {spec}: no BENCH_pr*.json baseline found in {directory!r}"
        )
    return max(candidates)[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the pinned simulator benchmark suite (DESIGN.md §11).",
    )
    parser.add_argument(
        "--pr", type=int,
        help="PR number for the output filename "
             "(default: one past the newest BENCH_pr<N>.json here)",
    )
    parser.add_argument("--out", help="output JSON path (default BENCH_pr<N>.json)")
    parser.add_argument("--suite", help="comma-separated subset of suite entries")
    parser.add_argument(
        "--against",
        help="baseline BENCH_pr<N>.json to gate events_popped against; "
             "'auto' picks the newest checked-in BENCH_pr*.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed events_popped growth over the baseline (fraction)",
    )
    parser.add_argument(
        "--shards", type=int,
        help="worker processes for cluster suite entries "
             "(default: in-process sequential driver; results are identical)",
    )
    args = parser.parse_args(argv)

    pr = args.pr if args.pr is not None else next_pr()
    names = args.suite.split(",") if args.suite else None
    results = run_suite(names, shards=args.shards)
    doc = {
        "pr": pr,
        "metric_note": "every field is deterministic; host time is hostbench's",
        "suite": results,
        "total": _totals(results),
    }

    for name, row in results.items():
        print(
            f"{name:16s} popped {row['events_popped']:9d}  "
            f"coalesced {row['events_coalesced']:9d}  peak_heap {row['peak_heap']:6d}"
        )
    total = doc["total"]
    print(
        f"{'TOTAL':16s} popped {total['events_popped']:9d}  "
        f"coalesced {total['events_coalesced']:9d}"
    )

    out = args.out or f"BENCH_pr{pr}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")

    baseline_path = resolve_baseline(args.against, exclude=out)
    if baseline_path:
        print(f"gating against {baseline_path}")
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        return _check_against(results, baseline, args.tolerance)
    return 0
