#!/usr/bin/env python3
"""Compare two hostbench results files: the parent (A) and the change (B).

    python3 hostbench/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, both
interquartile ranges and a verdict under the metric's bound from
``BENCHMARK.json``:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    B's median is worse by more than the bound, and both sides' spreads
    (IQR / median) are within it.
``unresolved``
    A spread is wider than the bound, so the medians cannot be told
    apart, unless every sample of B is better than every sample of A.

It then lists every deterministic per-layer value (counts, bytes,
ratios of counts) that differs between the files, and exits 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BENCHMARK, spread

#: Per-layer units whose values repeat exactly run to run.
DETERMINISTIC_UNITS = ("count", "B", "ratio")


def verdict(a: list, b: list, bound: float, better: str) -> str:
    """``ok``, ``worse`` or ``unresolved`` for samples ``b`` against ``a``."""
    sa, sb = spread(a), spread(b)
    if max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb)) > bound:
        wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if wins else "unresolved"
    change = (sb["median"] - sa["median"]) / sa["median"]
    return "worse" if (change if better == "lower" else -change) > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    names = sorted(set(a_doc["workloads"]) & set(b_doc["workloads"]))
    worse = 0
    print(f"{'workload':18s} {'metric':12s} {'A median':>11s} {'A IQR':>9s} "
          f"{'B median':>11s} {'B IQR':>9s} {'change':>8s}  verdict")
    for name in names:
        a, b = a_doc["workloads"][name], b_doc["workloads"][name]
        if not (a["correct"] and b["correct"]):
            print(f"{name:18s} not compared: a unit failed in "
                  f"{'A' if not a['correct'] else 'B'}")
            worse += 1
            continue
        for m in metrics:
            samples_a, samples_b = a["samples"][m["name"]], b["samples"][m["name"]]
            sa, sb = spread(samples_a), spread(samples_b)
            v = verdict(samples_a, samples_b, m["bound"], m["better"])
            worse += v == "worse"
            print(f"{name:18s} {m['name']:12s} {sa['median']:11.5g} {sa['q3'] - sa['q1']:9.3g} "
                  f"{sb['median']:11.5g} {sb['q3'] - sb['q1']:9.3g} "
                  f"{sb['median'] / sa['median'] - 1:+8.1%}  {v}")
    drift = []
    for name in names:
        la = a_doc["workloads"][name].get("per_layer", {})
        lb = b_doc["workloads"][name].get("per_layer", {})
        for metric in sorted(set(la) | set(lb)):
            da, db = la.get(metric), lb.get(metric)
            unit = (da or db)["unit"]
            if unit in DETERMINISTIC_UNITS and (da or {}).get("value") != (db or {}).get("value"):
                drift.append(f"{name:18s} {metric:32s} "
                             f"{(da or {}).get('value')} -> {(db or {}).get('value')}")
    print()
    print("deterministic per-layer drift:" if drift else "deterministic per-layer values: identical")
    for line in drift:
        print("  " + line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
