"""Ablation benches for the design choices DESIGN.md section 5 calls out.

These go beyond the paper's figures: they sweep the knobs the paper fixes
(or mentions only in passing) and check the design rationale holds.

* transport-partition count for the P2P channel (paper: 1 best intra-node,
  2 best inter-node for large kernels);
* user-partition count for the partitioned allreduce (pipelining vs
  per-put overhead);
* progression-engine poll latency sensitivity (the GPU-initiated paths
  depend on host polling; NCCL-style in-kernel paths do not);
* the traditional allreduce's bounce-buffer chunk size (why the paper's
  baseline is so slow).
"""

import pytest
from conftest import within

from repro.bench.coll import measure_allreduce
from repro.bench.p2p import TWO_NODE_PAIR, measure_p2p_goodput
from repro.bench.series import Series, render
from repro.hw.params import ONE_NODE
from repro.units import us


def test_ablation_transport_partitions(benchmark):
    """Sweep transport partitions for a large-kernel partitioned send."""

    def run():
        s = Series(
            "Ablation A1",
            "Transport partitions vs goodput (grid=8192, inter-node PE)",
            ["tps", "goodput_gbps"],
        )
        for tps in (1, 2, 4, 8):
            g = measure_p2p_goodput(8192, "progression", TWO_NODE_PAIR, tps=tps)
            s.add(tps=tps, goodput_gbps=g / 1e9)
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))
    by_tps = {r["tps"]: r["goodput_gbps"] for r in series.rows}
    # Paper Section VI-A2: two transport partitions won for large
    # inter-node kernels (one cannot overlap; too many pay per-put cost).
    assert by_tps[2] >= by_tps[1], "2 partitions should beat 1 (overlap)"
    assert by_tps[2] >= by_tps[8] * 0.95, "heavy splitting must not win big"


def test_ablation_allreduce_partitions(benchmark):
    """User-partition count for the partitioned allreduce (4 GPUs)."""

    def run():
        s = Series(
            "Ablation A2",
            "User partitions vs partitioned allreduce time (grid=2048)",
            ["partitions", "time_us"],
        )
        for u in (2, 4, 8, 16):
            t = measure_allreduce(2048, "partitioned", ONE_NODE, 4, partitions=u)
            s.add(partitions=u, time_us=t / us)
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))
    times = {r["partitions"]: r["time_us"] for r in series.rows}
    # More partitions pipeline better up to a point, then per-put and
    # per-reduce overheads win: the curve must not be monotone decreasing
    # through 16.
    assert times[16] > min(times.values()) * 0.99
    assert max(times.values()) / min(times.values()) < 6.0, "no pathological blowup"


def test_ablation_progression_poll(benchmark):
    """GPU-initiated paths degrade gracefully with slower host polling."""

    def run():
        s = Series(
            "Ablation A3",
            "Progression poll latency vs intra-node PE goodput (grid=16)",
            ["poll_us", "goodput_gbps"],
        )
        for poll in (0.1, 0.35, 1.0, 3.0):
            cfg = ONE_NODE.with_params(progress_poll_latency=poll * us)
            g = measure_p2p_goodput(16, "progression", cfg)
            s.add(poll_us=poll, goodput_gbps=g / 1e9)
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))
    vals = series.column("goodput_gbps")
    assert all(b <= a * 1.001 for a, b in zip(vals, vals[1:])), (
        "goodput must be non-increasing in poll latency"
    )
    assert vals[0] / vals[-1] < 2.0, "the design must not collapse under 3us polling"


def test_ablation_bounce_chunk(benchmark):
    """Traditional allreduce staging chunk size explains the Fig 6 gap."""

    def run():
        s = Series(
            "Ablation A4",
            "Bounce-buffer chunk vs traditional allreduce time (grid=4096)",
            ["bounce_kib", "time_us"],
        )
        for kib in (32, 64, 256, 1024):
            cfg = ONE_NODE.with_params(allreduce_bounce_bytes=kib * 1024)
            t = measure_allreduce(4096, "traditional", cfg, 4)
            s.add(bounce_kib=kib, time_us=t / us)
        return s

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(series))
    vals = series.column("time_us")
    assert all(b < a for a, b in zip(vals, vals[1:])), (
        "larger staging chunks must monotonically reduce allreduce time"
    )
    assert vals[0] / vals[-1] > 3.0, "chunking is the dominant baseline cost"
