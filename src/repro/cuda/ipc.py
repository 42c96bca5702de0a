"""CUDA IPC: exporting device allocations to peer processes.

Mirrors ``cudaIpcGetMemHandle`` / ``cudaIpcOpenMemHandle``.  The paper's
Kernel-Copy path relies on UCX's cuda_ipc transport calling
``cuIpcOpenMemHandle`` so a kernel can store directly into the remote
buffer (Section IV-A4); :meth:`IpcMemHandle.open` returns exactly that
device-visible mapped view.

Opening a handle is only legal from a GPU that can peer-map the owner
(:meth:`~repro.hw.spec.schema.MachineSpec.can_peer_map` — same node *and* a
P2P-capable interconnect), which is why the paper's Kernel-Copy mode is
intra-node only, and why a no-P2P PCIe machine rejects it even there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.schema import MachineSpec
from repro.san import record


class IpcError(Exception):
    """Illegal IPC operation (wrong memory space or unreachable peer)."""


@dataclass(frozen=True)
class IpcMemHandle:
    """An exportable reference to a device allocation."""

    buffer: Buffer

    def __post_init__(self) -> None:
        if self.buffer.space is not MemSpace.DEVICE:
            msg = f"cudaIpcGetMemHandle requires device memory, got {self.buffer.space}"
            record.guard("ipc-misuse", None, msg)
            raise IpcError(msg)

    @property
    def owner_gpu(self) -> int:
        assert self.buffer.gpu is not None
        return self.buffer.gpu

    def open(self, spec: MachineSpec, opener_gpu: int) -> Buffer:
        """``cudaIpcOpenMemHandle``: map the remote allocation for ``opener_gpu``.

        The returned Buffer shares payload memory with the exporter and
        keeps the *owner's* location, so fabric routing charges the
        NVLink hop between opener and owner on every access.
        """
        if not spec.can_peer_map(opener_gpu, self.owner_gpu):
            if spec.same_node(opener_gpu, self.owner_gpu):
                why = "no peer-to-peer capability (host-staged interconnect)"
            else:
                why = "different nodes (no NVLink/PCIe path)"
            msg = (
                f"gpu {opener_gpu} cannot IPC-open memory of gpu {self.owner_gpu}: {why}"
            )
            record.guard("ipc-misuse", ("host", opener_gpu), msg)
            raise IpcError(msg)
        return self.buffer.view(0, len(self.buffer.data), label=f"ipc:{self.buffer.label}")
