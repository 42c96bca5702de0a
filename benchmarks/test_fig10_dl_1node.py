"""Fig 10: DL kernel (BCE + gradient allreduce) on four GH200.

Paper claims reproduced here:

* per-training-step time: traditional MPI_Allreduce >> partitioned
  allreduce > NCCL (the application is collective-bound);
* the partitioned path's measurement includes MPI_Start and
  MPIX_Pbuf_prepare (they recur inside the training loop).
"""

from conftest import run_exhibit

GRIDS = (256, 1024, 4096)


def test_fig10_dl_1node(benchmark):
    series = run_exhibit(benchmark, "fig10", grids=GRIDS)

    for row in series.rows:
        assert row["traditional_us"] > row["partitioned_us"] > row["nccl_us"], (
            f"ordering must hold at grid {row['grid']}"
        )
        assert row["traditional_us"] / row["partitioned_us"] > 2.0

    # Step time grows with gradient size for all variants.
    for col in ("traditional_us", "partitioned_us", "nccl_us"):
        vals = series.column(col)
        assert all(b > a for a, b in zip(vals, vals[1:])), f"{col} must grow with size"
