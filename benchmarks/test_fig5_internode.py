"""Fig 5: inter-node goodput — GPU-initiated partitioned vs Send/Recv.

Paper claims reproduced here:

* the partitioned (Progression Engine) path wins at every size;
* the benefit peaks at ~2.80x for a 1-block kernel and settles to
  ~1.17x at the largest grid;
* inter-node gains exceed the intra-node gains of Fig 4 (communication
  is costlier, so overlap is more impactful);
* goodput stays below the 50 GB/s ConnectX-7 bound.
"""

from conftest import run_exhibit, within

GRIDS = (1, 16, 256, 8192, 131072)


def test_fig5_internode(benchmark):
    series = run_exhibit(benchmark, "fig5", grids=GRIDS)

    for row in series.rows:
        assert row["pe_speedup"] >= 1.0, f"partitioned must win at grid {row['grid']}"
        assert row["progression"] < 50.0, "goodput cannot exceed the IB bound"

    within(series.rows[0]["pe_speedup"], 2.4, 3.1, "speedup at grid 1 (paper 2.80x)")
    within(series.rows[-1]["pe_speedup"], 1.05, 1.3, "speedup at largest grid (paper 1.17x)")

    sp = series.column("pe_speedup")
    assert sp[0] == max(sp), "largest benefit must be at the smallest kernel"

    # Inter-node peak gain exceeds the intra-node PE peak (Fig 4 ~1.28x).
    assert sp[0] > 1.5
