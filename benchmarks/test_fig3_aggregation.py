"""Fig 3: device-side partition aggregation (thread vs warp vs block).

Paper claims reproduced here:

* all three mappings cost the same (within error) for a single thread,
  and warp == block up to 32 threads;
* above 32 threads the mappings diverge;
* at a full 1024-thread block, block-level MPIX_Pready is ~271.5x cheaper
  than thread-level and ~9.4x cheaper than warp-level.
"""

from conftest import run_exhibit, within


def test_fig3_aggregation(benchmark):
    series = run_exhibit(benchmark, "fig3")

    first = series.rows[0]
    assert first["threads"] == 1
    assert abs(first["thread_us"] - first["block_us"]) < 0.1
    assert abs(first["warp_us"] - first["block_us"]) < 0.1

    for row in series.rows:
        if row["threads"] <= 32:
            assert abs(row["warp_us"] - row["block_us"]) < 0.1, (
                f"warp and block must match at {row['threads']} threads (<= one warp)"
            )
        else:
            assert row["thread_us"] > row["warp_us"] > row["block_us"]

    last = series.rows[-1]
    assert last["threads"] == 1024
    within(last["thread_us"] / last["block_us"], 240.0, 300.0, "thread/block ratio (paper 271.5)")
    within(last["warp_us"] / last["block_us"], 8.0, 11.0, "warp/block ratio (paper 9.4)")
