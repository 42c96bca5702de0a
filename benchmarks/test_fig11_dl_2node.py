"""Fig 11: DL kernel (BCE + gradient allreduce) on eight GH200 (2 nodes).

Same ordering claims as Fig 10 at twice the scale; additionally the
two-node step times exceed the one-node ones (the ring crosses IB).
"""

from conftest import run_exhibit

from repro.workload.registry import get

GRIDS = (256, 1024, 4096)


def test_fig11_dl_2node(benchmark):
    series = run_exhibit(benchmark, "fig11", grids=GRIDS)

    for row in series.rows:
        assert row["traditional_us"] > row["partitioned_us"] > row["nccl_us"], (
            f"ordering must hold at grid {row['grid']}"
        )

    one_node = get("fig10").run(grids=(GRIDS[1],)).series
    two_node_row = series.rows[1]
    assert two_node_row["nccl_us"] > one_node.rows[0]["nccl_us"]
    assert two_node_row["partitioned_us"] > one_node.rows[0]["partitioned_us"]
