"""Memory spaces and NumPy-backed buffers.

A :class:`Buffer` pairs a NumPy array with a *location*: which memory space
it lives in (host pageable, host pinned, device global, unified) and which
GPU/node owns it.  Data movement in the simulation is real — RMA puts and
kernel copies actually copy NumPy data — so numerical results are checkable,
while *time* is charged by the link models.

Buffers support zero-copy partition views (``buf.partition(i, n)``) mirroring
how MPI Partitioned addresses sub-ranges of a persistent buffer.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.san import record
from repro.sim import run as _run


class MemSpace(enum.Enum):
    """Where a buffer physically lives."""

    HOST = "host"          # pageable host memory
    PINNED = "pinned"      # page-locked host memory, device-visible
    DEVICE = "device"      # GPU global memory (HBM)
    UNIFIED = "unified"    # managed memory, migrates on demand

    @property
    def device_accessible(self) -> bool:
        return self in (MemSpace.PINNED, MemSpace.DEVICE, MemSpace.UNIFIED)

    @property
    def host_accessible(self) -> bool:
        return self in (MemSpace.HOST, MemSpace.PINNED, MemSpace.UNIFIED)


class Buffer:
    """A located, NumPy-backed, byte-accounted memory region.

    Parameters
    ----------
    data:
        1-D NumPy array holding the payload. Views share memory with their
        parent, exactly like device pointers into one allocation.
    space:
        The :class:`MemSpace` the buffer lives in.
    node:
        Index of the owning node.
    gpu:
        Global GPU index for DEVICE/UNIFIED buffers (None for host memory).
    """

    __slots__ = ("data", "space", "node", "gpu", "label", "_registered", "freed")

    def __init__(
        self,
        data: np.ndarray,
        space: MemSpace,
        node: int,
        gpu: Optional[int] = None,
        label: str = "",
    ) -> None:
        if data.ndim != 1:
            raise ValueError("Buffer requires a 1-D array; flatten first")
        if space in (MemSpace.DEVICE, MemSpace.UNIFIED) and gpu is None:
            raise ValueError(f"{space} buffer needs an owning gpu")
        self.data = data
        self.space = space
        self.node = node
        self.gpu = gpu
        self.label = label
        self._registered = False  # set by ucx mem_map
        self.freed = False        # set by free(); checked by captured plans

    # -- factory helpers ---------------------------------------------------
    @classmethod
    def alloc(
        cls,
        n: int,
        dtype=np.float64,
        space: MemSpace = MemSpace.HOST,
        node: int = 0,
        gpu: Optional[int] = None,
        fill: Optional[float] = None,
        label: str = "",
    ) -> "Buffer":
        data = np.zeros(n, dtype=dtype) if fill is None else np.full(n, fill, dtype=dtype)
        buf = cls(data, space, node, gpu, label)
        if _run._RUN.bus is not None:
            record.note_alloc(buf, zero_filled=fill is None)
            if fill is not None:
                # An explicit fill is host initialization, not cudaMalloc garbage.
                record.access(None, buf, write=True, note="alloc-fill")
        return buf

    @classmethod
    def alloc_virtual(
        cls,
        n: int,
        dtype=np.float64,
        space: MemSpace = MemSpace.DEVICE,
        node: int = 0,
        gpu: Optional[int] = None,
        label: str = "",
    ) -> "Buffer":
        """Geometry-only allocation: zero-stride, read-only, O(1) memory.

        Used for regions whose *shape* matters to the protocol (partition
        counts, registration sizes) but whose payload is never read or
        written — e.g. the partitioned-collective send channel, whose puts
        always override the source slice.  Simulates the paper's
        registering of existing application memory without duplicating it.
        """
        # What np.broadcast_to builds, in half its time: every AM endpoint
        # makes two of these.
        data = np.ndarray((n,), dtype, np.zeros(1, dtype=dtype), strides=(0,))
        data.flags.writeable = False
        buf = cls(data, space, node, gpu, label)
        if _run._RUN.bus is not None:
            record.note_alloc(buf, zero_filled=True)
        return buf

    @property
    def is_virtual(self) -> bool:
        """True for geometry-only (read-only, zero-stride) buffers."""
        return not self.data.flags.writeable

    def alloc_like(self, n: int, space: MemSpace, node: int, label: str = "") -> "Buffer":
        """A host-side staging buffer matching this buffer's payload kind.

        Bounce/staging buffers inherit virtuality: staging a virtual
        buffer's bytes materializes nothing, so the stage is virtual too
        (same O(1) footprint), keeping GiB-scale virtual transfers free
        of real allocation and memcpy wall time.
        """
        if self.is_virtual:
            return Buffer.alloc_virtual(n, self.data.dtype, space, node=node, label=label)
        return Buffer.alloc(n, self.data.dtype, space, node=node, label=label)

    # -- geometry ---------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    def __len__(self) -> int:
        return len(self.data)

    def view(self, start: int, count: int, label: str = "") -> "Buffer":
        """Zero-copy element-range view sharing location metadata."""
        if start < 0 or count < 0 or start + count > len(self.data):
            raise IndexError(
                f"view [{start}:{start + count}) out of range for len {len(self.data)}"
            )
        return Buffer(
            self.data[start : start + count],
            self.space,
            self.node,
            self.gpu,
            label or self.label,
        )

    def partition(self, index: int, n_partitions: int) -> "Buffer":
        """View of equal partition ``index`` of ``n_partitions``.

        MPI Partitioned requires the buffer to split evenly across
        partitions; we enforce that (the paper's benchmarks always do).
        """
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if len(self.data) % n_partitions != 0:
            raise ValueError(
                f"buffer of {len(self.data)} elements does not split into "
                f"{n_partitions} equal partitions"
            )
        psize = len(self.data) // n_partitions
        return self.view(index * psize, psize)

    # -- data movement (caller charges time separately) -------------------------
    def copy_from(self, src: "Buffer") -> None:
        """Instantaneous payload copy; the link model charges the time."""
        if len(src.data) != len(self.data):
            raise ValueError(
                f"size mismatch: src {len(src.data)} vs dst {len(self.data)}"
            )
        if _run._RUN.bus is not None:
            record.access(None, src, write=False, note="copy_from")
            record.access(None, self, write=True, note="copy_from")
        if not self.data.flags.writeable:
            # Virtual destination: the transfer's *time* was charged by the
            # link model; there is no payload to materialize.
            return
        np.copyto(self.data, src.data)

    def free(self) -> None:
        """Mark the allocation dead (cudaFree).

        The NumPy payload stays readable — the simulation never segfaults
        — but captured transfer graphs and plan caches that pinned this
        buffer refuse to replay it (:class:`repro.dataplane.graph.GraphError`),
        mirroring the use-after-free a real graph launch would make of a
        freed device pointer.  Idempotent.
        """
        self.freed = True

    def same_allocation(self, other: "Buffer") -> bool:
        """True when both views share underlying memory."""
        return np.shares_memory(self.data, other.data)

    def location(self) -> Tuple[MemSpace, int, Optional[int]]:
        return (self.space, self.node, self.gpu)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"gpu{self.gpu}" if self.gpu is not None else f"node{self.node}"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Buffer{tag} {len(self.data)}x{self.data.dtype} {self.space.value}@{where}>"
