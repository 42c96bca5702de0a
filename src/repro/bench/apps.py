"""Workload runners for the application exhibits (Figs 8-11)."""

from __future__ import annotations

from typing import Dict, List

from repro.apps.dl import DlConfig, run_dl
from repro.apps.jacobi import JacobiConfig, run_jacobi
from repro.hw.spec.schema import MachineSpec
from repro.workload.runner import run_ranks


def _jacobi_main(ctx, cfg: JacobiConfig):
    return (yield from run_jacobi(ctx, cfg))


def measure_jacobi_gflops(
    multiplier: int,
    variant: str,
    config: MachineSpec,
    nprocs: int,
    base_tile: int = 16,
    iters: int = 150,
    copy_mode: str = "pe",
) -> float:
    """Aggregate GFLOP/s (slowest rank's view) for one Jacobi config."""
    cfg = JacobiConfig(
        multiplier=multiplier, base_tile=base_tile, iters=iters,
        variant=variant, copy_mode=copy_mode,
    )
    results = run_ranks(config, _jacobi_main, nprocs=nprocs, args=(cfg,)).results
    return min(r.gflops for r in results)


def _dl_main(ctx, cfg: DlConfig):
    return (yield from run_dl(ctx, cfg))


def measure_dl_step_time(
    grid: int,
    variant: str,
    config: MachineSpec,
    nprocs: int,
    steps: int = 3,
    partitions: int = 8,
) -> float:
    """Per-training-step time (seconds) incl. Start/Pbuf_prepare."""
    cfg = DlConfig(grid=grid, block=1024, steps=steps, variant=variant, partitions=partitions)
    results = run_ranks(config, _dl_main, nprocs=nprocs, args=(cfg,)).results
    return max(r.time for r in results) / steps
