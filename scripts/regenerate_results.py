#!/usr/bin/env python3
"""Regenerate every paper exhibit and write RESULTS.md.

    python scripts/regenerate_results.py [--fast]

``--fast`` decimates the sweeps further (CI-friendly, ~1 minute); the
default takes a few minutes and matches the benchmarks' resolution.
"""

import sys
import time

from repro.bench import render
from repro.sim.engine import STATS
from repro.workload.registry import get

FAST = "--fast" in sys.argv

PLANS = {
    "fig2": {},
    "fig3": {"threads": (1, 32, 1024)} if FAST else {},
    "fig4": {"grids": (1, 16, 256, 2048, 32768)},
    "fig5": {"grids": (1, 16, 256, 8192, 131072)},
    "fig6": {"grids": (1024, 4096) if FAST else (1024, 4096, 16384, 32768)},
    "fig7": {"grids": (1024,) if FAST else (1024, 4096, 16384)},
    "table1": {},
    "fig8": {"multipliers": (1, 4) if FAST else (1, 4, 16), "iters": 60 if FAST else 120},
    "fig9": {"multipliers": (1, 4) if FAST else (1, 4, 16), "iters": 60 if FAST else 120},
    "fig10": {"grids": (256, 1024) if FAST else (256, 1024, 4096)},
    "fig11": {"grids": (256, 1024) if FAST else (256, 1024, 4096)},
}


def main() -> None:
    blocks = ["# Regenerated exhibits", "",
              "Produced by `python scripts/regenerate_results.py`.", ""]
    for name, kwargs in PLANS.items():
        STATS.reset()
        t0 = time.time()
        series = get(name).run(**kwargs).series
        wall = time.time() - t0
        text = render(series)
        print(text)
        # Heap-traffic counters are deterministic: future PRs can spot
        # DES-level regressions here without a profiler.
        print(
            f"  [{name} regenerated in {wall:.1f}s wall, "
            f"{STATS.events_popped} events popped, "
            f"{STATS.events_coalesced} coalesced]\n"
        )
        blocks += ["```", text, "```", ""]
    with open("RESULTS.md", "w") as fh:
        fh.write("\n".join(blocks))
    print("wrote RESULTS.md")


if __name__ == "__main__":
    main()
