"""Command-line entry point: regenerate paper exhibits.

    python -m repro list                 # show available exhibits
    python -m repro fig4                 # regenerate one exhibit
    python -m repro fig4 --grids 1,256   # custom sweep
    python -m repro all [--fast]         # everything -> RESULTS.md
    python -m repro san <script>         # sanitize a run (see repro.san)
    python -m repro san --list-checks
    python -m repro analyze [--sarif out.sarif]   # static analysis (repro.analyze)
    python -m repro topo <spec>          # print/validate a machine spec
    python -m repro topo --machine fat-tree-512    # generated cluster fabrics
    python -m repro topo --list
    python -m repro profile <script> --chrome out.json --util --critical-path
    python -m repro bench [--against auto]   # simulator wall-clock suite
    python -m repro bench --suite cluster-fattree-512 --shards 4   # sharded engine
    python -m repro sweep --workloads pingpong --machines gh200-2x4 \
        --policies single,multi          # cached (workload x machine x policy) grid
    python -m repro replay sched.jsonl --machine fat-tree-512   # trace replay
    python -m repro replay --gen-llm dp=2,tp=4,pp=2 --out sched.jsonl
    python -m repro fault faults.jsonl --workload halo \
        --machine fat-tree-512           # run a workload under link faults
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import render


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "san":
        from repro.san.cli import main as san_main

        return san_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.analyze.cli import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "topo":
        from repro.hw.spec.cli import main as topo_main

        return topo_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.obs.cli import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.bench.suite import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "sweep":
        from repro.workload.cli import main_sweep

        return main_sweep(argv[1:])
    if argv and argv[0] == "replay":
        from repro.workload.cli import main_replay

        return main_replay(argv[1:])
    if argv and argv[0] == "fault":
        from repro.workload.cli import main_fault

        return main_fault(argv[1:])
    from repro.workload.exhibits import EXHIBIT_WORKLOADS

    exhibits = {wl.name: wl for wl in EXHIBIT_WORKLOADS}
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate exhibits of the GPU-initiated MPI Partitioned paper.",
    )
    parser.add_argument("exhibit", help="'list', 'all', or one of: " + ", ".join(exhibits))
    parser.add_argument("--grids", help="comma-separated grid sizes (p2p/coll/dl exhibits)")
    parser.add_argument("--multipliers", help="comma-separated multipliers (Jacobi exhibits)")
    parser.add_argument("--fast", action="store_true", help="decimate 'all' sweeps")
    args = parser.parse_args(argv)

    if args.exhibit == "list":
        for name, wl in exhibits.items():
            print(f"{name:8s} {wl.__doc__.strip().splitlines()[0]}")
        return 0

    if args.exhibit == "all":
        from scripts import regenerate_results  # pragma: no cover - thin wrapper

        sys.argv = ["regenerate_results"] + (["--fast"] if args.fast else [])
        regenerate_results.main()
        return 0

    wl = exhibits.get(args.exhibit)
    if wl is None:
        parser.error(f"unknown exhibit {args.exhibit!r}; try 'list'")
    kwargs = {}
    if args.grids:
        kwargs["grids"] = tuple(int(g) for g in args.grids.split(","))
    if args.multipliers:
        kwargs["multipliers"] = tuple(int(m) for m in args.multipliers.split(","))
    print(render(wl.run(**kwargs).series))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
