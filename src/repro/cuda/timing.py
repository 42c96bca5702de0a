"""The SM wave timing model: plain functions of a machine's GH200Params.

Calibration targets (paper Fig 2, Section III):

* ``cudaStreamSynchronize`` costs 7.8 +- 0.1 us regardless of kernel size;
* for grids <= 256 (one wave at block=1024) synchronization is 71.6-78.9 %
  of total launch+sync time -> small-kernel execution ~2-3 us;
* a 128K-grid vector-add kernel runs ~1 ms (sync is ~0.8 % of total) —
  consistent with being HBM-bandwidth-bound (3 x 8 B/thread traffic).

The wave model: an H100-class device has ``sm_count`` SMs, each holding up
to ``max_threads_per_sm`` resident threads (and at most ``max_blocks_per_sm``
blocks).  A grid executes in ``ceil(grid / resident_blocks)`` waves; each
wave takes ``max(block_floor, wave_bytes / sm_hbm_bw)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.hw.params import GH200Params


@dataclass(frozen=True)
class WorkSpec:
    """Per-thread work of a uniform kernel body.

    ``bytes_per_thread`` counts *total HBM traffic* (reads + writes); the
    paper's vector add ``C = A + B`` with 8 B elements moves 24 B/thread.
    ``flops_per_thread`` is kept for compute-bound kernels (Jacobi, BCE).
    """

    flops_per_thread: float = 1.0
    bytes_per_thread: float = 24.0

    @classmethod
    def vector_add(cls, elem_bytes: int = 8) -> "WorkSpec":
        return cls(flops_per_thread=1.0, bytes_per_thread=3.0 * elem_bytes)

    @classmethod
    def jacobi_stencil(cls, elem_bytes: int = 4) -> "WorkSpec":
        # 5-point stencil: ~4 reads (cached) + 1 write + ~5 flops.
        return cls(flops_per_thread=5.0, bytes_per_thread=3.0 * elem_bytes)

    @classmethod
    def bce(cls, elem_bytes: int = 4) -> "WorkSpec":
        # log/exp heavy: ~20 flops, 3 streams of traffic.
        return cls(flops_per_thread=20.0, bytes_per_thread=3.0 * elem_bytes)


def resident_blocks(p: GH200Params, block_threads: int) -> int:
    """Max concurrently-resident blocks on the whole device."""
    if not 1 <= block_threads <= p.max_block_threads:
        raise ValueError(
            f"block size {block_threads} out of range 1..{p.max_block_threads}"
        )
    per_sm = min(p.max_threads_per_sm // block_threads, p.max_blocks_per_sm)
    per_sm = max(per_sm, 1)
    return per_sm * p.sm_count


def n_waves(p: GH200Params, grid: int, block_threads: int) -> int:
    if grid < 1:
        raise ValueError("grid must be >= 1")
    return math.ceil(grid / resident_blocks(p, block_threads))


def block_compute_time(p: GH200Params, block_threads: int, work: WorkSpec) -> float:
    """Time for one isolated block (no wave contention)."""
    mem = block_threads * work.bytes_per_thread / p.sm_hbm_bw
    flops = block_threads * work.flops_per_thread / (p.flop_rate / p.sm_count)
    return max(p.block_floor, mem, flops)


def wave_time(p: GH200Params, n_blocks: int, block_threads: int, work: WorkSpec) -> float:
    """Time for one wave of ``n_blocks`` concurrently-resident blocks.

    Memory traffic of the whole wave shares the device HBM bandwidth;
    compute shares the device flop rate across SMs.
    """
    mem = n_blocks * block_threads * work.bytes_per_thread / p.sm_hbm_bw
    flops = n_blocks * block_threads * work.flops_per_thread / p.flop_rate
    return max(p.block_floor, mem, flops)


def wave_plan(
    p: GH200Params, grid: int, block_threads: int, work: WorkSpec
) -> List[Tuple[range, float]]:
    """Analytic schedule: list of (block-id range, wave duration)."""
    resident = resident_blocks(p, block_threads)
    plan: List[Tuple[range, float]] = []
    start = 0
    while start < grid:
        n = min(resident, grid - start)
        plan.append((range(start, start + n), wave_time(p, n, block_threads, work)))
        start += n
    return plan


def kernel_exec_time(p: GH200Params, grid: int, block_threads: int, work: WorkSpec) -> float:
    """Closed-form launch-to-completion time of a uniform kernel."""
    return p.launch_latency + sum(dt for _r, dt in wave_plan(p, grid, block_threads, work))
