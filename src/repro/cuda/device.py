"""The simulated GPU device: allocation, launch, synchronize, memcpy.

Host-side API methods ending in ``_h`` are generator helpers meant to be
delegated to from a rank's host process via ``yield from``; they charge the
host-visible API cost there (launch call, sync call, memcpy call), while
the device-side work runs asynchronously in the device's streams.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.cuda.devapi import DeviceCtx
from repro.cuda.kernel import BlockKernel, KernelBase, UniformKernel, Wave
from repro.cuda.timing import resident_blocks, wave_plan
from repro.hw.memory import Buffer, MemSpace
from repro.hw.topology import Fabric
from repro.san import record
from repro.sim import run as _run
from repro.sim.engine import STATS, collapsible
from repro.sim.events import AllOf, Event
from repro.sim.resources import Resource


class Device:
    """One Hopper GPU of a GH200 superchip."""

    def __init__(
        self,
        fabric: Fabric,
        gpu_id: int,
        name: Optional[str] = None,
    ) -> None:
        self.node = fabric.spec.node_of(gpu_id)  # IndexError on a bad id
        self.fabric = fabric
        self.engine = fabric.engine
        self.gpu_id = gpu_id
        #: The machine's constants table (``fabric.spec.params``).
        self.params = fabric.spec.params
        self.name = name or f"gpu{gpu_id}"
        #: The TransferGraph an open stream capture on this device is
        #: recording into, or None.  Capture-mode-global semantics: while
        #: set, enqueues on any *other* stream of this device are
        #: unrepresentable cross-stream dependencies (repro.dataplane.graph).
        self.active_capture = None
        from repro.cuda.stream import Stream  # local import to avoid cycle

        self.default_stream = Stream(self, name=f"{self.name}.s0")
        #: Every stream created on this device; :meth:`close` stops their workers.
        self.streams: List[Stream] = [self.default_stream]

    # -- allocation --------------------------------------------------------------
    def alloc(self, n: int, dtype=np.float64, fill: Optional[float] = None, label: str = "") -> Buffer:
        """cudaMalloc: device global memory."""
        return Buffer.alloc(n, dtype, MemSpace.DEVICE, self.node, self.gpu_id, fill, label)

    def alloc_virtual(self, n: int, dtype=np.float64, label: str = "") -> Buffer:
        """Geometry-only device allocation (see Buffer.alloc_virtual).

        For benchmark payloads whose bytes are never checked: protocol
        sizes and timings are identical to a real allocation, but no
        GiB-scale NumPy arrays are materialized or memcpy'd.
        """
        return Buffer.alloc_virtual(n, dtype, MemSpace.DEVICE, self.node, self.gpu_id, label)

    def alloc_pinned(self, n: int, dtype=np.float64, fill: Optional[float] = None, label: str = "") -> Buffer:
        """cudaMallocHost: page-locked host memory on this superchip."""
        return Buffer.alloc(n, dtype, MemSpace.PINNED, self.node, None, fill, label)

    def close(self) -> None:
        """Stop every stream worker (they park forever on an empty queue)
        and drop the streams, which point back at the device."""
        for stream in self.streams:
            stream.close()
        self.streams = []
        self.default_stream = None

    # -- kernel launch ------------------------------------------------------------
    def launch(self, kernel: KernelBase, stream=None) -> Event:
        """Asynchronously enqueue a kernel; returns its completion event.

        This is the zero-host-cost primitive; host code should prefer
        ``yield from device.launch_h(kernel)`` which also charges the
        host-side launch API cost.
        """
        if kernel.block > self.params.max_block_threads:
            raise ValueError(f"block size {kernel.block} exceeds device max "
                             f"{self.params.max_block_threads}")
        stream = stream or self.default_stream
        obs = self.engine.obs
        if obs is not None:
            obs.instant(
                "cuda", "launch", ("host", self.gpu_id),
                kernel=kernel.name, grid=kernel.grid, block=kernel.block,
                stream=stream.name,
            )
        return stream.enqueue(lambda: self._exec_kernel(kernel, stream), label=kernel.name)

    def launch_h(self, kernel: KernelBase, stream=None) -> Generator:
        """Host helper: charge launch API cost, then enqueue (returns event)."""
        yield self.params.launch_api_cost
        return self.launch(kernel, stream)

    def graph_launch_h(self, graph, stream=None) -> Generator:
        """Host helper: charge the (single) launch API cost, then replay
        a captured graph on ``stream``; returns the completion event.

        One API charge covers the whole graph — the batching win CUDA
        graphs exist for — versus one charge per kernel in the eager
        ``launch_h`` path.
        """
        stream = stream or self.default_stream
        yield self.params.launch_api_cost
        return stream.graph_launch(graph)

    def sync_h(self, stream=None) -> Generator:
        """``cudaStreamSynchronize``: block until drained + fixed API cost.

        Raises the first error of an op on ``stream`` that nobody waited on.
        """
        stream = stream or self.default_stream
        obs = self.engine.obs
        t0 = self.engine.now
        yield stream.drained()
        if _run._RUN.bus is not None:
            record.acquire(("host", self.gpu_id), ("drain", stream.name))
        yield self.params.stream_sync_cost
        if obs is not None:
            obs.span(
                "cuda", "sync", ("host", self.gpu_id),
                t0, self.engine.now, stream=stream.name,
            )
        error, stream.pending_error = stream.pending_error, None
        if error is not None:
            raise error

    # -- memcpy ------------------------------------------------------------------
    def memcpy_async(self, dst: Buffer, src: Buffer, stream=None) -> Event:
        """cudaMemcpyAsync: queue a copy on a stream; returns completion."""
        stream = stream or self.default_stream

        def op():
            yield self.fabric.dataplane.put(
                src, dst, traffic_class="cuda", name="memcpy"
            )

        return stream.enqueue(op, label="memcpy", buffers=(src, dst))

    # -- kernel execution internals ---------------------------------------------------
    def _exec_kernel(self, kernel: KernelBase, stream=None) -> Generator:
        launcher = stream.actor if stream is not None else ("host", self.gpu_id)
        yield self.params.launch_latency
        obs = self.engine.obs
        t0 = self.engine.now
        if _run._RUN.bus is not None:
            record.release(launcher, ("kstart", kernel))
        if kernel.apply is not None:
            # Materialize the kernel's numerical result now (see kernel.py
            # docstring for the visibility argument).
            kernel.apply()
            if _run._RUN.bus is not None:
                record.mark("apply", actor=launcher, gpu=self.gpu_id, kernel=kernel.name)
        if isinstance(kernel, UniformKernel):
            yield from self._exec_uniform(kernel)
        elif isinstance(kernel, BlockKernel):
            yield from self._exec_blocks(kernel)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown kernel flavour: {type(kernel).__name__}")
        if obs is not None:
            obs.span(
                "kernel", kernel.name, ("gpu", self.name),
                t0, self.engine.now, grid=kernel.grid, block=kernel.block,
            )
        if _run._RUN.bus is not None:
            record.acquire(launcher, ("kdone", kernel))

    def _exec_uniform(self, kernel: UniformKernel) -> Generator:
        kctx = DeviceCtx(self, kernel)
        if _run._RUN.bus is not None:
            record.acquire(kctx.actor, ("kstart", kernel))
        plan = wave_plan(self.params, kernel.grid, kernel.block, kernel.work)
        engine = self.engine

        # Coalesced fast path (DESIGN.md §11): with nothing observing
        # individual pops, waves whose hook effects are invisible collapse
        # into one heap event per wake point.  Wake times are folded with
        # the same left-to-right float additions the exact loop performs,
        # and scheduled at those *absolute* times, so every externally
        # observable action lands on a byte-identical simulated timestamp.
        # No run bus here, so no sanitizer hook either.
        if len(plan) > 1 and collapsible(engine):
            if kernel.wave_hook is None:
                t = engine.now
                for _blocks, dt in plan:
                    t = t + dt
                STATS.events_coalesced += len(plan) - 1
                yield engine.timeout_at(t)
                return
            wave_batches = getattr(kernel.wave_hook, "wave_batches", None)
            if wave_batches is not None:
                batches = wave_batches(kctx, plan)
                if batches is not None:
                    for n_waves, t_end, fire in batches:
                        if n_waves > 1:
                            STATS.events_coalesced += n_waves - 1
                        yield engine.timeout_at(t_end)
                        if fire is not None:
                            fire(kctx)
                    return

        for index, (blocks, dt) in enumerate(plan):
            start = engine.now
            yield dt
            if kernel.wave_hook is not None:
                kernel.wave_hook(
                    kctx,
                    Wave(index=index, blocks=blocks, start_time=start, end_time=engine.now),
                )
        if _run._RUN.bus is not None:
            record.release(kctx.actor, ("kdone", kernel))

    def _exec_blocks(self, kernel: BlockKernel) -> Generator:
        resident = resident_blocks(self.params, kernel.block)
        slots = Resource(
            self.engine, capacity=min(resident, kernel.grid), name=f"{self.name}.sm"
        )

        def run_block(block_id: int):
            yield slots.acquire()
            try:
                blk = DeviceCtx(self, kernel, block_id)
                if _run._RUN.bus is not None:
                    record.acquire(blk.actor, ("kstart", kernel))
                yield self.engine.process(
                    kernel.body(blk), name=f"{kernel.name}.b{block_id}"
                )
                if _run._RUN.bus is not None:
                    record.release(blk.actor, ("kdone", kernel))
            finally:
                slots.release()

        blocks = [
            self.engine.process(run_block(b), name=f"{kernel.name}.blk{b}")
            for b in range(kernel.grid)
        ]
        yield AllOf(self.engine, blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.name} node={self.node}>"
