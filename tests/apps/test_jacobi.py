"""Jacobi solver: distributed == serial, both exchange variants."""

import numpy as np
import pytest

from repro.apps.jacobi import (
    JacobiConfig,
    process_grid,
    run_jacobi,
    serial_jacobi,
)
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.mpi.errors import MpiUsageError
from repro.mpi.world import World

from ..conftest import exact_path


def _main(ctx, cfg):
    return (yield from run_jacobi(ctx, cfg))


def _assemble(results, tile, nprocs):
    py, px = process_grid(nprocs)
    glob = np.zeros((py * tile + 2, px * tile + 2))
    for res in results:
        ry, rx = res.coords
        glob[1 + ry * tile:1 + (ry + 1) * tile, 1 + rx * tile:1 + (rx + 1) * tile] = (
            res.local[1:-1, 1:-1]
        )
    return glob


def test_process_grid_shapes():
    assert process_grid(1) == (1, 1)
    assert process_grid(2) == (2, 1)
    assert process_grid(4) == (2, 2)     # paper: 2x2 on four GPUs
    assert process_grid(8) == (4, 2)     # paper: 4x2 on eight
    assert process_grid(6) == (3, 2)
    assert process_grid(16) == (4, 4)


@pytest.mark.parametrize("variant,copy_mode", [
    ("traditional", "pe"),
    ("partitioned", "pe"),
    ("partitioned", "kc_auto"),
])
def test_matches_serial_4_ranks(variant, copy_mode):
    cfg = JacobiConfig(multiplier=1, base_tile=16, iters=10, variant=variant,
                       copy_mode=copy_mode)
    results = World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))
    glob = _assemble(results, cfg.tile, 4)
    ref = serial_jacobi(2 * cfg.tile, 2 * cfg.tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1])


@pytest.mark.parametrize("variant", ["traditional", "partitioned"])
def test_matches_serial_8_ranks_two_nodes(variant):
    cfg = JacobiConfig(multiplier=1, base_tile=8, iters=8, variant=variant,
                       copy_mode="kc_auto")
    results = World(PAPER_TESTBED).run(_main, nprocs=8, args=(cfg,))
    glob = _assemble(results, cfg.tile, 8)
    ref = serial_jacobi(4 * cfg.tile, 2 * cfg.tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1])


def test_two_ranks_1d_decomposition():
    cfg = JacobiConfig(multiplier=1, base_tile=8, iters=6, variant="partitioned")
    results = World(ONE_NODE).run(_main, nprocs=2, args=(cfg,))
    glob = _assemble(results, cfg.tile, 2)
    ref = serial_jacobi(2 * cfg.tile, cfg.tile, cfg.iters)
    assert np.allclose(glob[1:-1, 1:-1], ref[1:-1, 1:-1])


def test_gflops_accounting():
    cfg = JacobiConfig(multiplier=1, base_tile=16, iters=4)
    results = World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))
    r = results[0]
    points = cfg.tile * cfg.tile
    assert r.gflops == pytest.approx(points * cfg.iters * 5.0 / r.time / 1e9 * 4)
    assert r.time > 0


def test_norm_computed_when_requested():
    cfg = JacobiConfig(multiplier=1, base_tile=8, iters=4, norm_every=2)
    results = World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))
    assert all(r.norm is not None and r.norm >= 0 for r in results)
    # all ranks agree on the global norm
    norms = {round(r.norm, 12) for r in results}
    assert len(norms) == 1


def test_unknown_variant_rejected():
    cfg = JacobiConfig(variant="bogus")

    def main(ctx):
        with pytest.raises(MpiUsageError):
            yield from run_jacobi(ctx, cfg)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_boundary_conditions_preserved():
    """Top Dirichlet row stays 1.0; solution bounded by [0, 1]."""
    cfg = JacobiConfig(multiplier=1, base_tile=16, iters=20, variant="partitioned")
    results = World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))
    for r in results:
        ry, _rx = r.coords
        if ry == 0:
            assert np.all(r.local[0, :] == 1.0)
        assert r.local.min() >= 0.0
        assert r.local.max() <= 1.0


def test_solution_progresses_toward_equilibrium():
    """More iterations move the interior closer to the boundary value."""
    def mean_interior(iters):
        cfg = JacobiConfig(multiplier=1, base_tile=8, iters=iters)
        results = World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))
        glob = _assemble(results, cfg.tile, 4)
        return glob[1:-1, 1:-1].mean()

    assert mean_interior(20) > mean_interior(4) > 0.0


#: Per-rank simulated times of a 576-tile partitioned solve (3 iterations,
#: four ranks on gh200-1x4), pinned as exact floats.  At tile 576 the
#: stencil kernel has 324 blocks of 1024 threads, more than the 264 the
#: GPU holds resident, so it runs in two waves: the only Jacobi shape
#: whose halo hook sees a wave that raises no halo.
MULTI_WAVE_TIMES = {
    "pe": [
        float.fromhex("0x1.f537cbd576a46p-12"),
        float.fromhex("0x1.f5380dcdf648cp-12"),
        float.fromhex("0x1.f4035228f2da4p-12"),
        float.fromhex("0x1.f40310307335ep-12"),
    ],
    "kc_auto": [
        float.fromhex("0x1.de28521b39922p-12"),
        float.fromhex("0x1.de289413b9368p-12"),
        float.fromhex("0x1.dcf3d86eb5c81p-12"),
        float.fromhex("0x1.dcf3e0adc5bcap-12"),
    ],
}


@pytest.mark.parametrize("copy_mode", sorted(MULTI_WAVE_TIMES))
def test_multi_wave_partitioned_times_pinned(copy_mode):
    """A stencil kernel of two waves lands on the same times with and
    without the exact path, and on the pinned ones."""
    cfg = JacobiConfig(multiplier=1, base_tile=576, iters=3,
                       variant="partitioned", copy_mode=copy_mode)
    fast = [r.time for r in World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))]
    with exact_path():
        exact = [r.time for r in World(ONE_NODE).run(_main, nprocs=4, args=(cfg,))]
    assert fast == exact
    assert fast == MULTI_WAVE_TIMES[copy_mode]
