"""Multi-GPU Jacobi solver with traditional vs partitioned halo exchange.

Reproduces the paper's Section VI-D1 (Figures 8, 9): the NVIDIA MPI+CUDA
Jacobi example adapted to MPI Partitioned.  The domain decomposes over a
2-D process grid (2x2 on four GPUs, 4x2 on eight — the paper's layout);
each rank iterates a 5-point stencil on its tile and exchanges halo rows/
columns with its neighbours every iteration.

Variants:

* ``traditional`` — launch stencil kernel, ``cudaStreamSynchronize``, then
  nonblocking MPI send/recv of all halos, wait, repeat (Listing 1 model);
* ``partitioned`` — persistent partitioned channels per neighbour; the
  stencil kernel's wave hook marks each halo ready as soon as its
  producing blocks complete (device ``MPIX_Pready``), so boundary data
  moves while the interior is still computing and the stream is never
  synchronized for communication;
* ``graphed`` — the per-iteration device work (stencil kernel plus one
  stream-ordered halo push per neighbour, addressed directly into the
  neighbour's published receive buffer) is stream-captured once into a
  :class:`~repro.dataplane.graph.TransferGraph` and replayed as a single
  graph launch per iteration — no per-op host enqueues and no MPI
  send/recv calls in the timed loop (an observed run degrades the launch
  to per-op enqueues with identical timing and numerics).

The numerics are real: tiles are NumPy arrays, and the distributed solve
matches :func:`serial_jacobi` on the same global problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Tuple

import numpy as np

from repro.cuda.kernel import UniformKernel
from repro.cuda.timing import WorkSpec
from repro.hw.memory import Buffer
from repro.mpi.errors import MpiUsageError
from repro.mpi.requests import waitall
from repro.partitioned.prequest import CopyMode
from repro.sim.events import AllOf

#: Direction codes; a message's tag is the direction it travels.
NORTH, SOUTH, EAST, WEST = 0, 1, 2, 3
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}

#: Flops per stencil point (4 adds + 1 multiply, NVIDIA's counting).
FLOPS_PER_POINT = 5.0


def process_grid(nprocs: int) -> Tuple[int, int]:
    """(py, px) decomposition: 4 -> 2x2, 8 -> 4x2 (paper Section VI-D1).

    Chooses the most-square factorization with py >= px.
    """
    for py in range(1, nprocs + 1):
        if nprocs % py == 0:
            px = nprocs // py
            if py >= px:
                return (py, px)
    return (nprocs, 1)  # pragma: no cover - unreachable


@dataclass(frozen=True)
class JacobiConfig:
    """One Jacobi run's shape."""

    multiplier: int = 1            # the paper's swept parameter (1..32)
    base_tile: int = 64            # local tile edge = base_tile * multiplier
    iters: int = 10
    variant: str = "traditional"   # 'traditional' | 'partitioned'
    copy_mode: str = "pe"          # 'pe' | 'kc_auto' (kernel copy intra-node)
    block: int = 1024
    norm_every: int = 0            # 0 = skip global norm (paper's timed loop)
    dtype: type = np.float64

    @property
    def tile(self) -> int:
        return self.base_tile * self.multiplier


@dataclass
class JacobiResult:
    """Per-rank outcome."""

    time: float                    # simulated seconds for the timed loop
    gflops: float
    local: np.ndarray              # final tile incl. halo ring
    coords: Tuple[int, int]
    norm: Optional[float] = None


def serial_jacobi(gny: int, gnx: int, iters: int, dtype=np.float64) -> np.ndarray:
    """Reference single-process solve on the (gny x gnx) interior."""
    a = np.zeros((gny + 2, gnx + 2), dtype=dtype)
    a[0, :] = 1.0  # top boundary
    a_new = a.copy()
    for _ in range(iters):
        a_new[1:-1, 1:-1] = 0.25 * (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        )
        a, a_new = a_new, a
    return a


def run_jacobi(ctx, cfg: JacobiConfig) -> Generator:
    """Rank-process generator: distributed Jacobi per ``cfg``.

    Every rank of the communicator must call this.  Returns a
    :class:`JacobiResult`.
    """
    if cfg.variant not in ("traditional", "partitioned", "graphed"):
        raise MpiUsageError(f"unknown Jacobi variant {cfg.variant!r}")
    comm = ctx.comm
    py, px = process_grid(comm.size)
    ry, rx = comm.rank // px, comm.rank % px
    tile = cfg.tile
    gny, gnx = py * tile, px * tile

    # Local tile with halo ring; global Dirichlet boundaries baked in.
    a = np.zeros((tile + 2, tile + 2), dtype=cfg.dtype)
    a_new = np.zeros_like(a)
    if ry == 0:
        a[0, :] = 1.0
        a_new[0, :] = 1.0

    neighbours: Dict[int, int] = {}
    if ry > 0:
        neighbours[NORTH] = (ry - 1) * px + rx
    if ry < py - 1:
        neighbours[SOUTH] = (ry + 1) * px + rx
    if rx < px - 1:
        neighbours[EAST] = ry * px + (rx + 1)
    if rx > 0:
        neighbours[WEST] = ry * px + (rx - 1)

    # Device halo buffers (registered once; persistent across iterations).
    sbuf = {d: ctx.gpu.alloc(tile, cfg.dtype, label=f"halo_s{d}") for d in neighbours}
    rbuf = {d: ctx.gpu.alloc(tile, cfg.dtype, label=f"halo_r{d}") for d in neighbours}

    points = tile * tile
    grid_blocks = max(1, math.ceil(points / cfg.block))
    work = WorkSpec.jacobi_stencil(elem_bytes=np.dtype(cfg.dtype).itemsize)

    def stencil_apply() -> None:
        a_new[1:-1, 1:-1] = 0.25 * (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        )
        # Stage the fresh boundary into the registered send buffers.
        for d in neighbours:
            if d == NORTH:
                sbuf[d].data[:] = a_new[1, 1:-1]
            elif d == SOUTH:
                sbuf[d].data[:] = a_new[-2, 1:-1]
            elif d == EAST:
                sbuf[d].data[:] = a_new[1:-1, -2]
            else:
                sbuf[d].data[:] = a_new[1:-1, 1]

    def consume_halos() -> None:
        for d in neighbours:
            if d == NORTH:
                a_new[0, 1:-1] = rbuf[d].data
            elif d == SOUTH:
                a_new[-1, 1:-1] = rbuf[d].data
            elif d == EAST:
                a_new[1:-1, -1] = rbuf[d].data
            else:
                a_new[1:-1, 0] = rbuf[d].data

    # Block ranges producing each boundary (row-major point -> block map).
    blocks_per_row = max(1, math.ceil(tile / cfg.block))
    producing_last_block = {
        NORTH: min(grid_blocks, blocks_per_row) - 1,
        SOUTH: grid_blocks - 1,
        EAST: grid_blocks - 1,   # column data spans all rows
        WEST: grid_blocks - 1,
    }

    if cfg.variant == "partitioned":
        sreqs, rreqs, preqs, modes = {}, {}, {}, {}
        spec = ctx.world.fabric.spec
        for d, nbr in neighbours.items():
            sreqs[d] = yield from comm.psend_init(sbuf[d], 1, nbr, tag=d)
            rreqs[d] = yield from comm.precv_init(rbuf[d], 1, nbr, tag=_OPPOSITE[d])
            # Best copy mechanism per link (paper Section VI-A2): direct
            # kernel stores over NVLink within a node, progression-engine
            # RMA puts across the IB fabric.
            modes[d] = (
                CopyMode.KERNEL_COPY
                if cfg.copy_mode == "kc_auto" and spec.same_node(ctx.gpu.gpu_id, nbr)
                else CopyMode.PROGRESSION_ENGINE
            )
        fire_at = [(producing_last_block[d], d) for d in neighbours]

        def halo_hook(kc, wave) -> None:
            # Raise each halo's device MPIX_Pready when the wave containing
            # its last producing block retires: a kernel-copy halo stores
            # directly into the neighbour (posted; the host completion is
            # gated on the copy), and every halo signals the progression
            # engine.
            for last_block, d in fire_at:
                if wave.blocks[0] <= last_block <= wave.blocks[-1]:
                    preq = preqs[d]
                    if preq.mode is CopyMode.KERNEL_COPY:
                        preq.kc_copy_events[0] = kc.copy(
                            preq.src_slice(0), preq.mapped_slice(0)
                        )
                    kc.write_host_flags(1, preq.host_signals[0])

    if cfg.variant == "graphed":
        # Publish receive halos so neighbours can address them with
        # stream-ordered copies, then capture one iteration's device
        # work — stencil kernel plus one halo push per neighbour — into
        # a transfer graph.  Capture records without executing; every
        # iteration of the timed loop is then a single graph launch.
        halos = ctx.world.shared(comm, "jacobi-halo", dict)
        for d in neighbours:
            halos[(comm.rank, d)] = rbuf[d]
        yield from comm.barrier()  # every rank's rbufs are published
        kernel = UniformKernel(
            grid_blocks, cfg.block, work, name="jacobi_g", apply=stencil_apply
        )
        stream = ctx.gpu.default_stream
        stream.begin_capture()
        ctx.gpu.launch(kernel)
        for d, nbr in sorted(neighbours.items()):
            ctx.gpu.memcpy_async(halos[(nbr, _OPPOSITE[d])], sbuf[d])
        jgraph = stream.end_capture()

    norm_val: Optional[float] = None
    t0 = ctx.now

    for it in range(cfg.iters):
        if cfg.variant == "traditional":
            kernel = UniformKernel(
                grid_blocks, cfg.block, work, name="jacobi", apply=stencil_apply
            )
            yield from ctx.gpu.launch_h(kernel)
            yield from ctx.gpu.sync_h()
            reqs = []
            for d, nbr in neighbours.items():
                rr = yield from comm.irecv(rbuf[d], nbr, tag=_OPPOSITE[d])
                reqs.append(rr)
            for d, nbr in neighbours.items():
                sr = yield from comm.isend(sbuf[d], nbr, tag=d)
                reqs.append(sr)
            yield from waitall(ctx.mpi, reqs)
            consume_halos()
        elif cfg.variant == "graphed":
            # One pre-priced submission replays the captured iteration;
            # the barrier is the only host-side synchronization (it
            # guarantees every neighbour's halo push has landed — each
            # rank reaches it only after draining its own stream).
            yield from ctx.gpu.graph_launch_h(jgraph)
            yield from ctx.gpu.sync_h()
            yield from comm.barrier()
            consume_halos()
        else:
            for d in neighbours:
                yield from sreqs[d].start()
                yield from rreqs[d].start()
            # Prepare all channels concurrently: a sender-side prepare
            # blocks on its peer's receiver-side prepare, so sequential
            # preparation of multiple neighbours can cycle-deadlock.
            preps = [
                ctx.engine.process(sreqs[d].pbuf_prepare(), name=f"prep_s{d}")
                for d in neighbours
            ] + [
                ctx.engine.process(rreqs[d].pbuf_prepare(), name=f"prep_r{d}")
                for d in neighbours
            ]
            yield AllOf(ctx.engine, preps)
            if it == 0:
                for d in neighbours:
                    preqs[d] = yield from sreqs[d].prequest_create(
                        ctx.gpu, grid=1, block=cfg.block, mode=modes[d],
                    )

            kernel = UniformKernel(
                grid_blocks, cfg.block, work, name="jacobi_p",
                apply=stencil_apply, wave_hook=halo_hook,
            )
            yield from ctx.gpu.launch_h(kernel)
            # MPI_Waitall over all halo channels: one call overhead.
            yield ctx.params.mpi_call_overhead
            for d in neighbours:
                yield from sreqs[d].wait(charge_overhead=False)
            for d in neighbours:
                yield from rreqs[d].wait(charge_overhead=False)
            consume_halos()

        if cfg.norm_every and (it + 1) % cfg.norm_every == 0:
            local_sq = float(np.sum((a_new[1:-1, 1:-1] - a[1:-1, 1:-1]) ** 2))
            sloc = Buffer.alloc(1, np.float64, node=ctx.mpi.node, fill=local_sq)
            rglob = Buffer.alloc(1, np.float64, node=ctx.mpi.node)
            yield from comm.allreduce(sloc, rglob)
            norm_val = math.sqrt(float(rglob.data[0]))

        a, a_new = a_new, a

    elapsed = ctx.now - t0
    gflops = (points * cfg.iters * FLOPS_PER_POINT) / elapsed / 1e9 * comm.size
    return JacobiResult(
        time=elapsed, gflops=gflops, local=a, coords=(ry, rx), norm=norm_val
    )
