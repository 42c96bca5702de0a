"""Command-line entry point: regenerate paper exhibits.

    python -m repro list                 # show available exhibits
    python -m repro fig4                 # regenerate one exhibit
    python -m repro fig4 --grids 1,256   # custom sweep
    python -m repro san <script>         # sanitize a run (see repro.san)
    python -m repro san --list-checks
    python -m repro analyze [--list]     # static analysis (repro.analyze)
    python -m repro topo <spec>          # print/validate a machine spec
    python -m repro topo fat-tree-512    # generated cluster fabrics
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

Every exhibit at once, into RESULTS.md: ``scripts/regenerate_results.py``.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.bench import render


#: Subcommand -> ``module:function`` taking the remaining arguments,
#: imported only when that subcommand runs.
_SUBCOMMANDS = {
    "san": "repro.san.cli:main",
    "analyze": "repro.analyze.cli:main",
    "topo": "repro.hw.spec.cli:main",
    "profile": "repro.obs.cli:main",
    "bench": "repro.bench.suite:main",
    "sweep": "repro.workload.cli:main_sweep",
    "replay": "repro.workload.cli:main_replay",
    "fault": "repro.workload.cli:main_fault",
}


def _positive_ints(text: str) -> tuple:
    """``--grids``/``--multipliers`` value: comma-separated positive integers."""
    items = text.split(",")
    if not all(item.isdecimal() and int(item) > 0 for item in items):
        raise argparse.ArgumentTypeError(f"want positive integers like 1,256, got {text!r}")
    return tuple(int(item) for item in items)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        module, func = _SUBCOMMANDS[argv[0]].split(":")
        return getattr(importlib.import_module(module), func)(argv[1:])
    from repro.workload.exhibits import EXHIBIT_WORKLOADS

    exhibits = {wl.name: wl for wl in EXHIBIT_WORKLOADS}
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate exhibits of the GPU-initiated MPI Partitioned paper.",
    )
    parser.add_argument("exhibit", help="'list', or one of: " + ", ".join(exhibits))
    parser.add_argument("--grids", type=_positive_ints,
                        help="comma-separated grid sizes (p2p/coll/dl exhibits)")
    parser.add_argument("--multipliers", type=_positive_ints,
                        help="comma-separated multipliers (Jacobi exhibits)")
    args = parser.parse_args(argv)

    if args.exhibit == "list":
        for name, wl in exhibits.items():
            print(f"{name:8s} {wl.__doc__.strip().splitlines()[0]}")
        return 0

    wl = exhibits.get(args.exhibit)
    if wl is None:
        parser.error(f"unknown exhibit {args.exhibit!r}; try 'list'")
    # Each option is named after the exhibit parameter it sets.
    kwargs = {flag: value for flag, value in vars(args).items()
              if flag != "exhibit" and value is not None}
    for flag in sorted(kwargs.keys() - wl.defaults.keys()):
        parser.error(f"{wl.name} takes no --{flag} "
                     f"(its parameters: {', '.join(wl.defaults) or 'none'})")
    print(render(wl.run(**kwargs).series))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
