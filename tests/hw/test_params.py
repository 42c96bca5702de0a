"""Parameter plumbing: defaults, overrides, immutability, the paper's machines."""

import dataclasses

import pytest

from repro.bench.p2p import TWO_NODE_PAIR
from repro.hw.params import GH200Params, ONE_NODE, PAPER_TESTBED
from repro.hw.spec.catalog import SPECS, gh200_spec
from repro.hw.spec.schema import LINK_PARAMS, SpecError
from repro.mpi.world import World
from repro.units import GBps, us


def test_paper_testbed_shape():
    assert PAPER_TESTBED.n_nodes == 2
    assert PAPER_TESTBED.uniform_gpus_per_node == 4
    assert PAPER_TESTBED.n_gpus == 8
    assert ONE_NODE.n_gpus == 4


def test_link_constants_match_section_v():
    p = GH200Params()
    assert p.nvlink_bw == pytest.approx(150 * GBps)
    assert p.c2c_bw == pytest.approx(450 * GBps)   # 900 GB/s total, per direction
    assert p.ib_bw == pytest.approx(50e9)          # 400 Gbit
    assert p.hbm_bw > p.c2c_bw > p.nvlink_bw > p.ib_bw


def test_params_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        GH200Params().nvlink_bw = 1.0


def test_with_overrides_returns_copy():
    base = GH200Params()
    fast = base.with_overrides(progress_poll_latency=0.1 * us)
    assert fast.progress_poll_latency == pytest.approx(0.1 * us)
    assert base.progress_poll_latency != fast.progress_poll_latency
    assert fast.nvlink_bw == base.nvlink_bw


def test_fig3_ratio_constants():
    """flag_write_base/flag_write_host encode the paper's Fig 3 ratios."""
    p = GH200Params()
    block = p.flag_write_host + p.flag_write_base
    thread = 1024 * p.flag_write_host + p.flag_write_base
    warp = 32 * p.flag_write_host + p.flag_write_base
    assert 240 < thread / block < 300       # paper: 271.5x
    assert 8 < warp / block < 11            # paper: 9.4x


def test_paper_machines_are_the_catalog_specs():
    assert ONE_NODE is SPECS["gh200-1x4"]
    assert PAPER_TESTBED is SPECS["gh200-2x4"]
    assert TWO_NODE_PAIR is SPECS["gh200-2x1"]
    with World(ONE_NODE) as world:
        assert world.fabric.spec is ONE_NODE  # no per-World spec rebuild


def test_with_params_takes_software_constants_only():
    """Link constants live in the spec's link classes: ``with_params``
    refuses them, ``gh200_spec`` rebuilds the links from new params, and
    a software constant changes ``params`` alone."""
    for name in sorted(LINK_PARAMS):
        with pytest.raises(SpecError, match=rf"{name}.*gh200_spec"):
            PAPER_TESTBED.with_params(**{name: 1.0})
    p = PAPER_TESTBED.params.with_overrides(ib_latency=10 * us, host_mem_bw=100 * GBps)
    rebuilt = gh200_spec(2, 4, p)
    assert rebuilt.params is p
    assert rebuilt.nic_out.latency == pytest.approx(5 * us)
    assert rebuilt.nic_in.latency == pytest.approx(5 * us)
    assert rebuilt.nodes[0].hostmem.bandwidth == pytest.approx(100 * GBps)
    tuned = PAPER_TESTBED.with_params(progress_poll_latency=0.1 * us)
    assert tuned.params.progress_poll_latency == pytest.approx(0.1 * us)
    assert tuned.nodes == PAPER_TESTBED.nodes
    assert tuned.nic_out == PAPER_TESTBED.nic_out


def test_gpu_constants_are_params_fields():
    """The CUDA and wave-model constants live in the one params table, so
    ``with_params`` reaches them in a run like any software constant."""
    from repro.workload import get

    tuned = ONE_NODE.with_params(stream_sync_cost=2 * us)
    (row,) = get("fig2").run(machine=tuned, grids=(4,)).series.rows
    assert row["sync_us"] == pytest.approx(2.0)
    (row,) = get("fig2").run(machine=ONE_NODE, grids=(4,)).series.rows
    assert row["sync_us"] == pytest.approx(7.8)
