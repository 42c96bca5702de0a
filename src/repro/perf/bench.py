"""``python -m repro bench``: the pinned simulator benchmark suite.

Each suite entry runs a fixed workload under ``time.perf_counter`` and
records the engine's event-loop counters:

* ``wall_s`` — host wall-clock seconds (informational; never gated,
  machines differ);
* ``events_popped`` — heap events actually dispatched.  Deterministic for
  a given code state, so it is the regression metric: ``--against`` fails
  when an entry pops more than ``tolerance`` above its recorded baseline;
* ``events_coalesced`` — per-wave events the coalescing fast path avoided
  scheduling (DESIGN.md §11);
* ``peak_heap`` — high-water mark of the pending-event heap.

The suite mirrors the paper exhibits that dominate ``regenerate_results``:
a host ping-pong, decimated Fig 4/5 goodput sweeps, the single
131072-partition Fig 5 point (the ISSUE's headline O(waves) target), and
the Fig 8 Jacobi solve.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import time
from typing import Dict, Iterable, Optional

from repro.sim.engine import STATS

#: Default tolerance for the --against gate: events_popped is exactly
#: reproducible, but small headroom keeps unrelated cost-model tweaks from
#: tripping the CI step.
DEFAULT_TOLERANCE = 0.05


def _workload(name: str):
    from repro.workload.registry import get

    return get(name)


def _pingpong() -> dict:
    # Per-traffic-class accounting from the dataplane ledger: which
    # subsystem moved how many bytes over this workload (deterministic).
    return {"class_bytes": _workload("pingpong").run().class_bytes}


def _fig4_decimated() -> None:
    _workload("fig4").run(grids=(1, 256, 32768))


def _fig5_decimated() -> None:
    _workload("fig5").run(grids=(1, 256, 131072))


def _fig5_131072() -> None:
    _workload("p2p-point").run(grid=131072, model="progression")


def _fig8_jacobi() -> None:
    _workload("fig8").run(multipliers=(1, 4), iters=60)


def _striping() -> dict:
    """Single-path vs link-disjoint striped goodput, one large D2D point.

    The 64 MiB intra-node point has four link-disjoint routes on the
    GH200 mesh (direct NVLink, two NVLink detours, the C2C host path);
    the recorded speedup is deterministic simulated goodput, not wall
    clock, so it is stable across machines.
    """
    res = _workload("striping").run()
    return {
        "single_GBps": res.extra["single_GBps"],
        "multi_GBps": res.extra["multi_GBps"],
        "stripes": res.extra["stripes"],
        "stripe_speedup": res.extra["stripe_speedup"],
        "class_bytes": res.class_bytes,
    }


#: Worker processes for cluster suite entries; set by ``--shards``.
#: None = the pinned in-process sequential driver.
_CLUSTER_SHARDS: Optional[int] = None


def _cluster_fattree_512() -> dict:
    """512-GPU rail-optimized fat-tree halo under the sharded engine.

    64 node shards driven by conservative lookahead windows.  All digest
    and counter fields are bit-identical for every ``--shards`` value
    (DESIGN.md §14), so the entry gates like any other; only ``wall_s``
    responds to the worker count.
    """
    from repro.hw.spec.generators import fabric_metrics, resolve_machine

    spec = resolve_machine("fat-tree-512")
    res = _workload("halo").run(
        machine=spec, shards=_CLUSTER_SHARDS, iters=4, chunks=2
    )
    sig = res.extra["signature"]
    metrics = fabric_metrics(spec)
    return {
        "mode": res.mode,
        "workers": res.extra["workers"],
        "windows": res.extra["windows"],
        "messages": sig["messages"],
        "msg_digest": sig["msg_digest"],
        "t_end_us": round(sig["t_end"] * 1e6, 3),
        "lookahead_us": round(metrics["lookahead_s"] * 1e6, 3),
        "bisection_bw_GBps": round(metrics["bisection_bw"] / 1e9, 1),
        "cluster_events_popped": sig["events_popped"],
        "per_shard_popped": sig["per_shard_popped"],
    }


def _graph_replay(schedule, machine: str) -> dict:
    """Shared shape of the captured-transfer-graph replay entries.

    The replay runs in cluster graph mode: per-shard simulation happens
    on private graph engines (``events_graphed``) behind one pre-priced
    graph-launch host event per active window, so ``events_popped``
    collapses by the per-iteration batching factor.  Digests and
    ``t_end_us`` are bit-identical under ``REPRO_NO_GRAPHS=1``; the CI
    smoke re-runs one entry that way and asserts exactly that.
    """
    from repro.workload.replay import ReplayWorkload

    res = ReplayWorkload(schedule).run(machine=machine, shards=_CLUSTER_SHARDS)
    sig = res.extra["signature"]
    g = res.extra["graphs"]
    eager_equiv = g["events_graphed"] if g["events_graphed"] else sig["events_popped"]
    return {
        "mode": res.mode,
        "msg_digest": sig["msg_digest"],
        "t_end_us": round(sig["t_end"] * 1e6, 3),
        "cluster_events_popped": sig["events_popped"],
        "events_graphed": g["events_graphed"],
        "graph_launches": g["graph_launches"],
        "pop_batching_factor": round(eager_equiv / sig["events_popped"], 2),
    }


def _graph_replay_jacobi() -> dict:
    """10-iteration 4x2 Jacobi halo pattern, graph-captured replay."""
    from repro.workload.generators import jacobi_schedule

    return _graph_replay(jacobi_schedule(py=4, px=2, iters=10), "gh200-2x4")


def _graph_replay_llm16() -> dict:
    """16-rank 3D-parallel LLM step on a 16-GPU fat-tree, graph replay."""
    from repro.workload.generators import llm_schedule

    return _graph_replay(
        llm_schedule(dp=2, tp=2, pp=4, microbatches=2), "fat-tree-16-n4-l2"
    )


def _fault_reroute() -> dict:
    """Mid-run NVLink loss under a plan-cached 512 MiB chunk pipeline.

    Records the dynamic-fabric acceptance bounds (DESIGN.md §17): the
    faulted run lands strictly between the healthy multipath and
    single-path timings, recovers via both tiers (stripe re-routes and
    a plan re-bind), and no chunk is lost to a FabricFault.
    """
    from repro.dataplane.bench import measure_fault_reroute

    r = measure_fault_reroute()
    assert r["healthy_s"] < r["faulted_s"] < r["single_s"], r
    assert r["reroutes"] > 0 and r["replanned"] > 0, r
    assert r["faults"] == 0 and r["faulted_chunks"] == 0, r
    return {
        "healthy_us": round(r["healthy_s"] * 1e6, 3),
        "faulted_us": round(r["faulted_s"] * 1e6, 3),
        "single_us": round(r["single_s"] * 1e6, 3),
        "reroutes": r["reroutes"],
        "plan_hits": r["plan_hits"],
    }


def _congestion_vs_single() -> dict:
    """Eight concurrent same-pair 16 MiB puts: congestion-aware routing
    spreads them over the disjoint candidates and must beat the
    serialized single-path baseline by at least 2x (asserted)."""
    from repro.dataplane.bench import measure_congestion_goodput

    single = measure_congestion_goodput("single")
    cong = measure_congestion_goodput("congestion")
    speedup = single["elapsed_s"] / cong["elapsed_s"]
    assert speedup >= 2.0, (single, cong)
    return {
        "single_GBps": round(single["goodput_Bps"] / 1e9, 2),
        "congestion_GBps": round(cong["goodput_Bps"] / 1e9, 2),
        "congestion_speedup": round(speedup, 3),
    }


SUITE = {
    "pingpong": _pingpong,
    "fig4-decimated": _fig4_decimated,
    "fig5-decimated": _fig5_decimated,
    "fig5-131072-pe": _fig5_131072,
    "fig8-jacobi": _fig8_jacobi,
    "striping-64MiB": _striping,
    "cluster-fattree-512": _cluster_fattree_512,
    "graph-replay-jacobi": _graph_replay_jacobi,
    "graph-replay-llm16": _graph_replay_llm16,
    "fault-reroute-512MiB": _fault_reroute,
    "congestion-vs-single": _congestion_vs_single,
}


def run_suite(names: Optional[Iterable[str]] = None) -> Dict[str, dict]:
    """Run the selected entries; returns ``{entry: counters}``.

    An entry may return a dict of extra deterministic metrics (per-class
    byte ledgers, striping goodput); they are merged into its row.
    """
    from repro.dataplane.graph import GRAPHS

    results: Dict[str, dict] = {}
    for name in names or SUITE:
        fn = SUITE.get(name)
        if fn is None:
            raise KeyError(f"unknown bench suite entry {name!r}; have {sorted(SUITE)}")
        STATS.reset()
        GRAPHS.reset()
        t0 = time.perf_counter()
        extra = fn()
        wall = time.perf_counter() - t0
        snap = STATS.snapshot()
        snap.pop("events_cancelled", None)
        if not snap.get("events_graphed"):
            snap.pop("events_graphed", None)
        row = {"wall_s": round(wall, 3), **snap,
               "graph_launches": GRAPHS.launches}
        if GRAPHS.replanned:
            row["events_replanned"] = GRAPHS.replanned
        if isinstance(extra, dict):
            row.update(extra)
        results[name] = row
    return results


def _totals(results: Dict[str, dict]) -> dict:
    total = {"wall_s": 0.0, "events_popped": 0, "events_coalesced": 0, "peak_heap": 0}
    for row in results.values():
        total["wall_s"] = round(total["wall_s"] + row["wall_s"], 3)
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
    candidates = []
    for path in glob.glob(os.path.join(directory, "BENCH_pr*.json")):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if m and os.path.realpath(path) != skip:
            candidates.append((int(m.group(1)), path))
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
    parser.add_argument("--pr", type=int, default=10, help="PR number for the output filename")
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

    global _CLUSTER_SHARDS
    _CLUSTER_SHARDS = args.shards

    names = args.suite.split(",") if args.suite else None
    results = run_suite(names)
    doc = {
        "pr": args.pr,
        "metric_note": "events_popped is deterministic; wall_s is informational",
        "suite": results,
        "total": _totals(results),
    }

    for name, row in results.items():
        print(
            f"{name:16s} wall {row['wall_s']:8.3f}s  popped {row['events_popped']:9d}  "
            f"coalesced {row['events_coalesced']:9d}  peak_heap {row['peak_heap']:6d}"
        )
    total = doc["total"]
    print(
        f"{'TOTAL':16s} wall {total['wall_s']:8.3f}s  popped {total['events_popped']:9d}  "
        f"coalesced {total['events_coalesced']:9d}"
    )

    out = args.out or f"BENCH_pr{args.pr}.json"
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
