"""Fig 4: intra-node goodput of the three communication models.

Paper claims reproduced here:

* Kernel Copy beats both the Progression Engine and traditional
  Send/Recv at *every* kernel size;
* the Progression Engine wins up to ~2K grids (max ~1.28x) and is
  penalty-free (~1.0x) beyond;
* Kernel Copy peaks at ~2.34x for small kernels and still gives ~1.06x
  at a 32K grid;
* goodput stays below the 150 GB/s NVLink unidirectional bound.
"""

from conftest import run_exhibit, within

GRIDS = (1, 16, 256, 2048, 32768)


def test_fig4_intranode(benchmark):
    series = run_exhibit(benchmark, "fig4", grids=GRIDS)

    for row in series.rows:
        assert row["kernel_copy"] >= row["progression"] * 0.999, (
            f"KC must dominate PE at grid {row['grid']}"
        )
        assert row["progression"] >= row["sendrecv"] * 0.98, (
            f"PE must not lose to send/recv at grid {row['grid']}"
        )
        assert row["kernel_copy"] < 150.0, "goodput cannot exceed the NVLink bound"

    small = series.rows[0]
    within(small["pe_speedup"], 1.1, 1.45, "PE speedup at grid 1 (paper max 1.28x)")
    within(small["kc_speedup"], 2.0, 2.7, "KC speedup at grid 1 (paper max 2.34x)")

    large = series.rows[-1]
    within(large["pe_speedup"], 0.98, 1.15, "PE speedup at 32K (paper ~1.0x)")
    within(large["kc_speedup"], 1.0, 1.15, "KC speedup at 32K (paper 1.06x)")

    # The PE advantage must decay with kernel size (crossover to ~1.0).
    pe = series.column("pe_speedup")
    assert pe[0] > pe[-1], "PE speedup must shrink as kernels grow"
