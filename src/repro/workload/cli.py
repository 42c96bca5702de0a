"""CLI frontends: ``python -m repro sweep`` / ``replay`` / ``fault``.

    python -m repro sweep --workloads pingpong,halo --machines gh200-2x4
    python -m repro sweep --workloads replay:sched.jsonl \\
        --machines fat-tree-512 --policies single,multi --shards 2
    python -m repro replay sched.jsonl --machine gh200-2x4 --policy multi
    python -m repro replay --gen-llm dp=2,tp=4,pp=2 --out sched.jsonl
    python -m repro replay --from-nccl run.log --out sched.jsonl
    python -m repro fault faults.jsonl                    # validate + print
    python -m repro fault faults.jsonl --workload halo \\
        --machine fat-tree-512 --shards 2                 # faulted run
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.shard.cluster import ClusterError
from repro.workload.base import WorkloadError
from repro.workload.sweep import DEFAULT_CACHE_DIR, run_sweep


def _split(csv: Optional[str]) -> List[str]:
    return [item for item in (csv or "").split(",") if item]


def _parse_params(pairs: List[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise WorkloadError(f"--param wants k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a (workload × machine × policy) grid with a "
        "content-addressed result cache.",
    )
    parser.add_argument(
        "--workloads", required=True,
        help="comma-separated registry names or replay:<schedule.jsonl>",
    )
    parser.add_argument(
        "--machines", required=True,
        help="comma-separated machine names (catalog or generator grammar)",
    )
    parser.add_argument(
        "--policies", default="default",
        help="comma-separated path policies: single, multi, congestion, default",
    )
    parser.add_argument("--shards", type=int, default=None,
                        help="worker count for shard-capable workloads")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        help="cap the cell cache at this many MiB with "
                        "least-recently-used eviction (default: unbounded)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always run; do not read or write the cache")
    parser.add_argument("--param", action="append", default=[],
                        help="k=v workload parameter (repeatable; JSON values)")
    parser.add_argument("--out", help="write the full grid result as JSON")
    args = parser.parse_args(argv)

    policies = [None if p == "default" else p for p in _split(args.policies)]
    try:
        if args.cache_max_mb is not None and args.cache_max_mb <= 0:
            raise WorkloadError(f"--cache-max-mb must be > 0, got {args.cache_max_mb:g}")
        grid = run_sweep(
            workloads=_split(args.workloads),
            machines=_split(args.machines),
            policies=policies or (None,),
            shards=args.shards,
            params=_parse_params(args.param),
            cache_dir=None if args.no_cache else args.cache_dir,
            cache_max_bytes=(
                int(args.cache_max_mb * 1024 * 1024)
                if args.cache_max_mb is not None else None
            ),
            printer=print,
        )
    except (WorkloadError, ClusterError) as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(grid['cells'])} cells: {grid['hits']} hits, "
          f"{grid['misses']} misses")
    for cell in grid["cells"]:
        res = cell["result"]
        print(f"  {cell['workload']:24s} {cell['machine']:20s} "
              f"{cell['policy']:8s} popped={res['events_popped']:>8d} "
              f"series={res['digests']['series'][:12]}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(grid, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def main_replay(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Replay a JSONL communication schedule, or generate one "
        "from an LLM training pattern / NCCL-style log.",
    )
    parser.add_argument("schedule", nargs="?",
                        help="schedule JSONL file to replay")
    parser.add_argument("--machine", default=None)
    parser.add_argument("--policy", default=None,
                        choices=("single", "multi", "congestion"))
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--gen-llm", metavar="K=V,...",
                        help="generate an LLM training schedule "
                        "(dp,tp,pp,layers,hidden,seq,microbatches,steps)")
    parser.add_argument("--from-nccl", metavar="LOG",
                        help="convert an NCCL-style log into a schedule")
    parser.add_argument("--out", help="write the schedule as JSONL")
    args = parser.parse_args(argv)

    from repro.workload.replay import ReplayError, ReplayWorkload, parse_jsonl

    try:
        if args.gen_llm is not None:
            from repro.workload.generators import llm_schedule

            kwargs = {}
            for pair in _split(args.gen_llm):
                if "=" not in pair:
                    raise ReplayError(f"--gen-llm wants k=v, got {pair!r}")
                key, value = pair.split("=", 1)
                kwargs[key] = value if key == "name" else int(value)
            sched = llm_schedule(**kwargs)
        elif args.from_nccl is not None:
            from repro.workload.generators import parse_nccl_log

            with open(args.from_nccl) as fh:
                sched = parse_nccl_log(fh.read(), source=args.from_nccl)
        elif args.schedule is not None:
            with open(args.schedule) as fh:
                sched = parse_jsonl(fh.read(), source=args.schedule)
        else:
            parser.error("give a schedule file, --gen-llm, or --from-nccl")

        if args.out:
            with open(args.out, "w") as fh:
                fh.write(sched.to_jsonl())
            print(f"wrote {args.out}  (ranks={sched.ranks} "
                  f"steps={len(sched.steps)} digest={sched.digest[:12]})")
            if args.schedule is None:
                return 0

        result = ReplayWorkload(sched).run(
            machine=args.machine, policy=args.policy, shards=args.shards,
        )
    except (ReplayError, WorkloadError, ClusterError, FileNotFoundError) as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 1

    print(f"schedule  {sched.name}  ranks={sched.ranks} "
          f"steps={len(sched.steps)} digest={sched.digest[:12]}")
    print(f"machine   {result.machine}  policy={result.policy} "
          f"mode={result.mode}")
    print(f"popped    {result.events_popped}")
    for cls in sorted(result.class_bytes):
        entry = result.class_bytes[cls]
        nbytes = entry["bytes"] if isinstance(entry, dict) else entry
        print(f"  class {cls:20s} {nbytes} bytes")
    for key in sorted(result.digests):
        print(f"  digest {key:18s} {result.digests[key][:16]}")
    return 0


def main_fault(argv=None) -> int:
    """Validate a fault schedule; optionally drive a workload under it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fault",
        description="Validate a link-fault schedule (JSONL: one "
        '{"t": ..., "link": ..., "action": "down|restore|degrade"} per '
        "line) and optionally run a workload with it installed.",
    )
    parser.add_argument("schedule", help="fault schedule JSONL file")
    parser.add_argument("--workload", default=None,
                        help="registry name or replay:<schedule.jsonl>; "
                        "omit to only validate and print the schedule")
    parser.add_argument("--machine", default=None)
    parser.add_argument("--policy", default=None,
                        choices=("single", "multi", "congestion"))
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--param", action="append", default=[],
                        help="k=v workload parameter (repeatable; JSON values)")
    args = parser.parse_args(argv)

    from repro.hw.faults import FaultError, FaultSchedule
    from repro.workload.registry import resolve_spec

    try:
        sched = FaultSchedule.load(args.schedule)
    except (FaultError, FileNotFoundError) as exc:
        print(f"fault error: {exc}", file=sys.stderr)
        return 1
    print(f"schedule  {args.schedule}  events={len(sched)}")
    for ev in sched:
        scope = f" node={ev.node}" if ev.node is not None else ""
        extra = f" factor={ev.factor}" if ev.factor is not None else ""
        print(f"  t={ev.t:<12g} {ev.action:8s} {ev.link}{extra}{scope}")
    if args.workload is None:
        return 0

    from repro.hw.spec.schema import SpecError

    try:
        result = resolve_spec(args.workload).run(
            machine=args.machine, policy=args.policy, shards=args.shards,
            faults=sched, **_parse_params(args.param),
        )
    except (WorkloadError, ClusterError, FaultError, SpecError, KeyError) as exc:
        print(f"fault error: {exc}", file=sys.stderr)
        return 1
    print(f"workload  {result.workload}  machine={result.machine} "
          f"policy={result.policy} mode={result.mode}")
    print(f"popped    {result.events_popped}")
    for cls in sorted(result.class_bytes):
        entry = result.class_bytes[cls]
        nbytes = entry["bytes"] if isinstance(entry, dict) else entry
        print(f"  class {cls:20s} {nbytes} bytes")
    for key in sorted(result.digests):
        print(f"  digest {key:18s} {result.digests[key][:16]}")
    return 0
