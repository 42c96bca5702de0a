"""Device-side action APIs available to kernel bodies and wave hooks.

A :class:`DeviceCtx` is handed to each block of a
:class:`~repro.cuda.kernel.BlockKernel`, and one per kernel to
:class:`~repro.cuda.kernel.UniformKernel` wave hooks, whose actions then
aggregate many blocks' effects into O(1) simulation events.  Every method
returns an :class:`~repro.sim.events.Event` so the caller chooses to wait
(``yield``) or post fire-and-forget — mirroring how device stores are
posted while ``__threadfence_system`` + spin loops wait.

Host-visible signalling cost model (paper Fig 3): ``n`` device-thread
writes into pinned host memory serialize on the superchip's C2C link at
``flag_write_host`` each, plus a fixed ``flag_write_base`` until the value
is observable by the host — producing the paper's 271.5x (1024 vs 1 write)
and 9.4x (32 vs 1) aggregation ratios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.cuda.timing import WorkSpec, block_compute_time
from repro.hw.memory import Buffer
from repro.san import record
from repro.sim import run as _run
from repro.sim.events import Event
from repro.sim.process import Chain, Delayed
from repro.sim.resources import Counter, Flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device

#: Things a device flag-write can fire: a Flag (set) or Counter (add).
HostSignal = Union[Flag, Counter, Callable[[], None]]


def _fire(signal: HostSignal, amount: int = 1) -> None:
    if isinstance(signal, Flag):
        signal.set()
    elif isinstance(signal, Counter):
        signal.add(amount)
    else:
        signal()


class HostFlagWrite(Chain):
    """``n_writes`` serialized device->host flag stores, then fire ``signal``.

    The C2C down-link port serializes the stores (against other blocks'
    stores too); the fixed base covers the fence + host visibility delay.
    ``actor``, when given, release-publishes everything it did so far to
    whoever observes ``signal`` (the progression engine's watcher).
    """

    __slots__ = ("device", "n_writes", "signal", "amount", "actor", "_link", "_t0")

    def __init__(self, device: "Device", n_writes: int, signal: HostSignal,
                 amount: int = 1, actor=None) -> None:
        self.device, self.n_writes, self.signal = device, n_writes, signal
        self.amount, self.actor = amount, actor
        Chain.__init__(self, device.engine)

    def _step(self, stage: int, ev: Optional[Event]) -> None:
        n = self.n_writes
        if stage == 0:
            if n < 1:
                raise ValueError("n_writes must be >= 1")
            self._link = self.device.fabric.d2h_link(self.device.gpu_id)
            self._acquire(self._link.port)
        elif stage == 1:  # granted
            self._t0 = self.engine._now
            self._sleep(n * self.device.params.flag_write_host)
        elif stage == 2:
            self._link.account(8 * n, self._t0, transfers=n)
            self._link.port.release()
            self._sleep(self.device.params.flag_write_base)
        else:
            if self.actor is not None and _run._RUN.bus is not None:
                record.release(self.actor, ("sig", self.signal))
            _fire(self.signal, self.amount)
            self.succeed(n)


def multi_flag_write_proc(device: "Device", signals, actor=None):
    """Aggregate of several same-instant crossing signals, one store each.

    Replays exactly what ``len(signals)`` concurrent single-write
    :class:`HostFlagWrite` chains would do — the C2C port serializes
    them back-to-back (FIFO hands the slot over at the same instant), so
    store ``k`` occupies ``[T + (k-1)*w, T + k*w]`` and fires
    ``flag_write_base`` after its own store — but in one process instead
    of one per signal.  Only the coalescing fast path uses this (the
    engine is unobserved there, hence no per-signal ``record`` calls);
    the exact path keeps per-signal chains.
    """
    hw = device.params
    link = device.fabric.d2h_link(device.gpu_id)
    engine = device.engine
    yield link.port.acquire()
    for signal in signals:
        t0 = engine.now
        yield hw.flag_write_host
        link.account(8, t0, transfers=1)
        engine.timeout(hw.flag_write_base).add_callback(
            lambda _ev, s=signal: _fire(s, 1)
        )
    link.port.release()
    return len(signals)


class _FencedCopy(Chain):
    """Intra-kernel store sequence: wire transfer + system fence."""

    __slots__ = ("device", "src", "dst", "name", "actor")

    def __init__(self, device: "Device", src: Buffer, dst: Buffer, name: str, actor) -> None:
        self.device, self.src, self.dst, self.name, self.actor = device, src, dst, name, actor
        Chain.__init__(self, device.engine)

    def _step(self, stage: int, ev: Optional[Event]) -> None:
        if stage == 0:
            if _run._RUN.bus is not None:
                record.access(self.actor, self.src, write=False, note=self.name)
                record.access(self.actor, self.dst, write=True, note=self.name)
            self.device.fabric.dataplane.put(
                self.src, self.dst, traffic_class="cuda", name=self.name
            ).callbacks.append(self._run_callbacks)
        elif stage == 1:
            self._sleep(self.device.params.kc_fence_overhead)
        else:
            self.succeed()


class DeviceCtx:
    """Device context of one block, or of a whole kernel's waves.

    A :class:`~repro.cuda.kernel.BlockKernel` body gets one per block
    (``block_id`` set); a :class:`~repro.cuda.kernel.UniformKernel` wave
    hook gets the kernel's (``block_id=None``), whose actions stand for
    many blocks' at once.  ``actor`` is its sanitizer trace identity.
    """

    __slots__ = ("device", "kernel", "block_id", "block_threads", "actor", "_label")

    def __init__(self, device: "Device", kernel, block_id: Optional[int] = None) -> None:
        self.device = device
        self.kernel = kernel
        self.block_id = block_id
        self.block_threads = kernel.block
        if block_id is None:
            self.actor = kernel.actor(device)
            self._label = kernel.name
        else:
            self.actor = kernel.block_actor(device, block_id)
            self._label = f"{kernel.name}:{block_id}"

    # -- engine plumbing ------------------------------------------------------
    @property
    def engine(self):
        return self.device.engine

    @property
    def now(self) -> float:
        return self.device.engine.now

    # -- compute ----------------------------------------------------------------
    def compute(self, work: WorkSpec) -> Event:
        """This block's compute phase (isolated-block cost model)."""
        dt = block_compute_time(self.device.params, self.block_threads, work)
        return self.engine.timeout(dt)

    def syncthreads(self) -> Event:
        """``__syncthreads()`` — intra-block barrier cost."""
        if _run._RUN.bus is not None:
            record.mark("syncthreads", actor=self.actor)
        return self.engine.timeout(self.device.params.syncthreads_cost)

    # -- sanitizer annotations ----------------------------------------------------
    def note_read(self, buf: Buffer) -> None:
        """Annotate that this context's threads read ``buf`` (zero sim cost)."""
        if _run._RUN.bus is not None:
            record.access(self.actor, buf, write=False, note="note_read")

    def note_write(self, buf: Buffer) -> None:
        """Annotate that this context's threads wrote ``buf`` (zero sim cost)."""
        if _run._RUN.bus is not None:
            record.access(self.actor, buf, write=True, note="note_write")

    # -- host signalling (MPIX_Pready progression-engine path) ---------------------
    def write_host_flags(self, n_writes: int, signal: HostSignal, amount: int = 1) -> Event:
        """``n_writes`` serialized stores into pinned host memory, then fire."""
        return HostFlagWrite(self.device, n_writes, signal, amount, actor=self.actor)

    def write_crossing_signals(self, signals) -> Event:
        """Several same-wave crossing signals, one store each (fast path only).

        See :func:`multi_flag_write_proc`; used by the coalesced-
        signalling layer when one wave crosses the threshold of multiple
        contiguous transport partitions at once.
        """
        return self.device.engine.process(
            multi_flag_write_proc(self.device, signals, actor=self.actor),
            name=f"hflags[{self._label}]",
        )

    # -- global memory atomics (block aggregation counters) -----------------------
    def atomic_add(self, counter: Counter, amount: int = 1) -> Event:
        """Atomic add in this GPU's global memory; event value = new count."""
        def add() -> int:
            # An atomic RMW is both an acquire and a release on the counter:
            # every pair of atomics on it is happens-before ordered.
            if _run._RUN.bus is not None:
                record.acquire(self.actor, ("ctr", counter))
                record.release(self.actor, ("ctr", counter))
            return counter.add(amount)

        return Delayed(self.device.engine, self.device.params.gmem_atomic, add)

    # -- intra-kernel copies (Kernel-Copy MPIX_Pready path) --------------------------
    def copy(self, src: Buffer, dst: Buffer) -> Event:
        """Load/store copy from this kernel, e.g. over NVLink to a peer GPU.

        ``dst`` is typically an IPC-mapped view of remote device memory
        obtained through ``ucp_rkey_ptr`` (see repro.ucx.memreg).  The
        event fires once the stores are peer-visible: wire time plus the
        ``__threadfence_system`` fence cost.
        """
        if not src.space.device_accessible or not dst.space.device_accessible:
            raise ValueError("kernel copy requires device-accessible buffers")
        ev = _FencedCopy(self.device, src, dst, f"kcopy[{self._label}]", self.actor)
        if self.actor is not None and _run._RUN.bus is not None:
            # Release at fence-visible time, keyed by the completion event, so
            # a waiter (e.g. the PE holding this kernel-copy event) acquires it.
            ev.add_callback(lambda _ev: record.release(self.actor, ("copydone", ev)))
        return ev
