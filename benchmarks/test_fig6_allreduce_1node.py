"""Fig 6: allreduce on four GH200 (one node) — partitioned vs MPI vs NCCL.

Paper claims reproduced here:

* the partitioned allreduce is dramatically (paper: "multiple orders of
  magnitude") faster than the traditional device-buffer MPI_Allreduce at
  the kernel+communication level;
* NCCL still beats the partitioned allreduce at every size (the
  in-collective reduction kernels + stream synchronizations, Section
  VI-B), with a few-hundred-microsecond gap at a 1K grid (paper 226 us).
"""

from conftest import run_exhibit, within

GRIDS = (1024, 4096, 16384)


def test_fig6_allreduce_1node(benchmark):
    series = run_exhibit(benchmark, "fig6", grids=GRIDS)

    for row in series.rows:
        assert row["traditional_us"] > row["partitioned_us"] > row["nccl_us"], (
            f"ordering must be traditional > partitioned > NCCL at grid {row['grid']}"
        )
        assert row["trad_over_part"] > 5.0, (
            "partitioned must be dramatically faster than MPI_Allreduce"
        )

    at_1k = series.rows[0]
    assert at_1k["grid"] == 1024
    within(at_1k["part_minus_nccl_us"], 100.0, 500.0, "partitioned-NCCL gap at 1K (paper ~226us)")

    # The traditional/partitioned factor grows with size (>= an order of
    # magnitude for the larger grids).
    assert series.rows[-1]["trad_over_part"] > 10.0
