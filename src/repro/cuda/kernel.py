"""Kernel descriptions: exact per-block bodies and analytic uniform kernels.

Two flavours (see DESIGN.md and the package docstring):

:class:`BlockKernel`
    ``body(blk)`` is a generator executed once *per block* under the SM
    wave scheduler, with a :class:`~repro.cuda.devapi.DeviceCtx` exposing
    device-side actions.  Exact but O(grid) coroutines — use for small
    grids and semantics tests (e.g. the paper's Fig 3 single-block sweep).

:class:`UniformKernel`
    All blocks perform identical ``work``; execution follows the analytic
    wave plan of :func:`~repro.cuda.timing.wave_plan`, and an optional
    ``wave_hook(kctx, wave)`` runs at each wave's completion time to apply
    aggregate device-side effects (bulk ``MPIX_Pready`` signalling, kernel
    copies).  O(waves) events — use for the paper's large-grid sweeps.

Both flavours may carry ``apply``: a host-side NumPy function producing the
kernel's *numerical* result.  It runs when the kernel starts executing, so
any data a device-side copy forwards later in simulated time is already
materialized.  (No other process may mutate kernel inputs while the kernel
is in flight — the simulator asserts stream ordering, which gives the same
guarantee real CUDA streams do.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

from repro.cuda.timing import WorkSpec


@dataclass(frozen=True)
class Wave:
    """One wave of a uniform kernel's execution (passed to wave hooks)."""

    index: int
    blocks: range          # global block ids completing in this wave
    start_time: float      # simulated time the wave began
    end_time: float        # simulated time the wave's blocks completed

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


class KernelBase:
    """Shared geometry/validation for both kernel flavours."""

    def __init__(
        self,
        grid: int,
        block: int,
        name: str = "kernel",
        apply: Optional[Callable[[], Any]] = None,
    ) -> None:
        if grid < 1:
            raise ValueError(f"grid must be >= 1, got {grid}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.grid = grid
        self.block = block
        self.name = name
        self.apply = apply

    @property
    def n_threads(self) -> int:
        return self.grid * self.block

    # -- sanitizer identity ------------------------------------------------
    def actor(self, device) -> tuple:
        """Trace identity of this kernel's aggregate (wave) context."""
        return ("kernel", device.name, self.name)

    def block_actor(self, device, block_id: int) -> tuple:
        """Trace identity of one block of this kernel on ``device``."""
        return ("block", device.name, self.name, block_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} <<<{self.grid},{self.block}>>>>"


class BlockKernel(KernelBase):
    """Kernel with an exact per-block generator body.

    ``body`` receives its block's :class:`~repro.cuda.devapi.DeviceCtx`;
    it must be a generator (it *yields* device actions).  Example::

        def body(blk):
            yield blk.compute(WorkSpec.vector_add())
            yield pready(blk, preq)   # repro.partitioned.device.pready

        kernel = BlockKernel(grid=4, block=1024, body=body)
    """

    def __init__(
        self,
        grid: int,
        block: int,
        body: Callable[["Any"], Generator],
        name: str = "block_kernel",
        apply: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(grid, block, name, apply)
        self.body = body


class UniformKernel(KernelBase):
    """Analytically-timed kernel of identical blocks.

    ``wave_hook(kctx, wave)`` (optional) is invoked, as plain non-blocking
    code, at each wave's completion time; ``kctx`` is the kernel's
    :class:`~repro.cuda.devapi.DeviceCtx`, whose actions schedule the
    wave's aggregate communication effects.
    """

    def __init__(
        self,
        grid: int,
        block: int,
        work: WorkSpec,
        wave_hook: Optional[Callable[[Any, Wave], None]] = None,
        name: str = "uniform_kernel",
        apply: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(grid, block, name, apply)
        self.work = work
        self.wave_hook = wave_hook
