"""Fig 7: allreduce on eight GH200 (two nodes, ranks 0-3 / 4-7 per node).

Same claims as Fig 6 at twice the scale, plus: multi-node times exceed
the corresponding single-node times (the ring crosses the IB fabric).
"""

from conftest import run_exhibit, within

from repro.workload.registry import get

GRIDS = (1024, 4096, 16384)


def test_fig7_allreduce_2node(benchmark):
    series = run_exhibit(benchmark, "fig7", grids=GRIDS)

    for row in series.rows:
        assert row["traditional_us"] > row["partitioned_us"], (
            f"partitioned must beat MPI_Allreduce at grid {row['grid']}"
        )
        # NCCL wins or ties; at the largest two-node grids the partitioned
        # ring's kernel overlap makes it a statistical tie (within 5%).
        assert row["nccl_us"] <= row["partitioned_us"] * 1.05, (
            f"NCCL must win or tie at grid {row['grid']}"
        )
        assert row["trad_over_part"] > 3.0

    # Cross-check against Fig 6: two-node rings are slower than one-node.
    one_node = get("fig6").run(grids=(GRIDS[0],)).series
    assert series.rows[0]["nccl_us"] > one_node.rows[0]["nccl_us"]
    assert series.rows[0]["partitioned_us"] > one_node.rows[0]["partitioned_us"]
