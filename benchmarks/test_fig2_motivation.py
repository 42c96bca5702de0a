"""Fig 2: the cost of cudaStreamSynchronize (Section III motivation).

Paper claims reproduced here:

* sync cost is constant (7.8 +- 0.1 us) regardless of kernel size;
* for grids up to 256, synchronization is 71.6-78.9 % of launch+sync;
* at a 128K grid only ~0.8 % of total time is synchronization, i.e. the
  CPU idles for >99 % of a large kernel's execution.
"""

from conftest import run_exhibit, within


def test_fig2_motivation(benchmark):
    series = run_exhibit(benchmark, "fig2")

    sync_times = series.column("sync_us")
    assert max(sync_times) - min(sync_times) < 0.2, "sync cost must be size-independent"
    within(sync_times[0], 7.7, 7.9, "sync cost (us)")

    for row in series.rows:
        if row["grid"] <= 256:
            within(row["sync_pct"], 68.0, 82.0, f"sync fraction at grid {row['grid']}")
    largest = series.rows[-1]
    assert largest["grid"] >= 65536
    within(largest["sync_pct"], 0.4, 1.2, "sync fraction at the largest grid")

    # Lost overlap potential grows monotonically with kernel size.
    lost = series.column("lost_overlap_us")
    assert all(b >= a * 0.99 for a, b in zip(lost, lost[1:])), "lost overlap must grow"
