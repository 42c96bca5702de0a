#!/usr/bin/env python3
"""Regenerate every paper exhibit and write RESULTS.md.

    PYTHONPATH=src python scripts/regenerate_results.py

Runs each exhibit of ``EXHIBIT_WORKLOADS``, in paper order, at the
``full`` point it declares (``repro.workload.exhibits``), prints each
series with its heap-traffic counters, and writes the series to
RESULTS.md in the working directory (a few minutes).
"""

import time

from repro.bench import render
from repro.sim.engine import STATS
from repro.workload.exhibits import EXHIBIT_WORKLOADS


def main() -> None:
    blocks = ["# Regenerated exhibits", "",
              "Produced by `python scripts/regenerate_results.py`.", ""]
    for wl in EXHIBIT_WORKLOADS:
        STATS.reset()
        t0 = time.time()
        series = wl.run(**wl.points["full"]).series
        wall = time.time() - t0
        text = render(series)
        print(text)
        # Heap-traffic counters are deterministic: future PRs can spot
        # DES-level regressions here without a profiler.
        print(
            f"  [{wl.name} regenerated in {wall:.1f}s wall, "
            f"{STATS.events_popped} events popped, "
            f"{STATS.events_coalesced} coalesced]\n"
        )
        blocks += ["```", text, "```", ""]
    with open("RESULTS.md", "w") as fh:
        fh.write("\n".join(blocks))
    print("wrote RESULTS.md")


if __name__ == "__main__":
    main()
