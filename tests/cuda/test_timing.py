"""Wave model: geometry, wave plans, Fig 2 calibration invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.timing import (
    WorkSpec,
    kernel_exec_time,
    n_waves,
    resident_blocks,
    wave_plan,
    wave_time,
)
from repro.hw.params import GH200Params
from repro.units import us

P = GH200Params()


def test_resident_blocks_by_block_size():
    assert resident_blocks(P, 1024) == 2 * 132          # 2048/1024 per SM
    assert resident_blocks(P, 256) == 8 * 132
    assert resident_blocks(P, 64) == 32 * 132           # capped at 32 blocks/SM
    assert resident_blocks(P, 1) == 32 * 132


def test_resident_blocks_bounds():
    with pytest.raises(ValueError):
        resident_blocks(P, 0)
    with pytest.raises(ValueError):
        resident_blocks(P, 2048)


def test_n_waves():
    r = resident_blocks(P, 1024)
    assert n_waves(P, 1, 1024) == 1
    assert n_waves(P, r, 1024) == 1
    assert n_waves(P, r + 1, 1024) == 2
    with pytest.raises(ValueError):
        n_waves(P, 0, 1024)


def test_wave_plan_covers_grid_exactly():
    plan = wave_plan(P, 1000, 1024, WorkSpec.vector_add())
    blocks = [b for rng, _dt in plan for b in rng]
    assert blocks == list(range(1000))


def test_small_wave_hits_floor():
    dt = wave_time(P, 1, 1024, WorkSpec.vector_add())
    assert dt == pytest.approx(P.block_floor)


def test_full_wave_is_bandwidth_bound():
    n = resident_blocks(P, 1024)
    dt = wave_time(P, n, 1024, WorkSpec.vector_add())
    assert dt == pytest.approx(n * 1024 * 24 / P.sm_hbm_bw)
    assert dt > P.block_floor


def test_fig2_sync_fraction_small_kernels():
    """Paper: sync is 71.6-78.9% of launch+sync for grids <= 256."""
    for grid in (1, 16, 256):
        total = P.launch_api_cost + kernel_exec_time(P, grid, 1024, WorkSpec.vector_add())
        frac = P.stream_sync_cost / (total + P.stream_sync_cost)
        assert 0.68 <= frac <= 0.82, (grid, frac)


def test_fig2_sync_fraction_large_kernel():
    """Paper: ~0.8% at a 128K grid."""
    total = kernel_exec_time(P, 131072, 1024, WorkSpec.vector_add())
    frac = P.stream_sync_cost / (total + P.stream_sync_cost)
    assert 0.004 <= frac <= 0.012
    assert 0.8e-3 <= total <= 1.3e-3   # ~1 ms kernel


def test_flop_bound_kernel():
    heavy = WorkSpec(flops_per_thread=1e6, bytes_per_thread=1.0)
    n = resident_blocks(P, 1024)
    dt = wave_time(P, n, 1024, heavy)
    assert dt == pytest.approx(n * 1024 * 1e6 / P.flop_rate)


def test_workspec_presets():
    assert WorkSpec.vector_add(8).bytes_per_thread == 24.0
    assert WorkSpec.jacobi_stencil(8).flops_per_thread == 5.0
    assert WorkSpec.bce().flops_per_thread == 20.0


def test_with_overrides():
    fast = P.with_overrides(stream_sync_cost=1 * us)
    assert fast.stream_sync_cost == pytest.approx(1 * us)
    assert P.stream_sync_cost == pytest.approx(7.8 * us)


@given(
    grid=st.integers(min_value=1, max_value=1 << 17),
    block=st.integers(min_value=1, max_value=1024),
)
@settings(max_examples=100, deadline=None)
def test_property_exec_time_consistent_with_wave_plan(grid, block):
    work = WorkSpec.vector_add()
    plan = wave_plan(P, grid, block, work)
    assert len(plan) == n_waves(P, grid, block)
    assert sum(len(rng) for rng, _ in plan) == grid
    total = P.launch_latency + sum(dt for _, dt in plan)
    assert kernel_exec_time(P, grid, block, work) == pytest.approx(total)


@given(grid=st.integers(min_value=1, max_value=1 << 16))
@settings(max_examples=60, deadline=None)
def test_property_exec_time_monotone_in_grid(grid):
    work = WorkSpec.vector_add()
    t1 = kernel_exec_time(P, grid, 1024, work)
    t2 = kernel_exec_time(P, grid + 1, 1024, work)
    assert t2 >= t1 * (1 - 1e-12)
