"""Transfer descriptors: what a producer asks the dataplane to move.

A descriptor is pure data — source/destination buffers (or a bare wire
byte-count for control traffic), a traffic class for the ledger, the
initiator, and the completion-time payload semantics.  Validation lives
here so every producer gets the same checks: wire sizes are compared in
*bytes* (element counts hide dtype mismatches), and payload transfers
additionally require matching element geometry unless the destination is
a virtual (geometry-only) buffer that never materializes the copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.memory import Buffer


class DescriptorError(ValueError):
    """A descriptor failed validation before touching the fabric."""


@dataclass
class TransferDescriptor:
    """One requested data movement, as submitted to the dataplane.

    Parameters
    ----------
    src, dst:
        Endpoint buffers.  Their locations select the route; for payload
        transfers their bytes must agree.
    nbytes:
        Wire bytes.  Defaults to ``src.nbytes``; control descriptors
        (``payload=False``) may override it to charge a different wire
        size (envelopes, flag packets) than the probe buffers suggest.
    payload:
        When True the destination receives the source bytes at wire
        completion (RMA visibility: a reader that waits observes new
        data, a racing reader observes old data).  When False only time
        and link occupancy are charged; the caller applies any logical
        content itself.
    traffic_class:
        Ledger key ("rma", "eager", "rndv", "pcoll", "nccl", ...).
    initiator:
        "host" for host software issue, "device" for SM-driven stores.
        Host-initiated device-to-device transfers between IPC-mappable
        peers stage through the source GPU's copy engine (the cuda_ipc
        path the Kernel-Copy design bypasses, paper Section IV-A4).
    name:
        Name for the transfer (labels its fault records and its repr).
    """

    src: Buffer
    dst: Buffer
    nbytes: Optional[int] = None
    payload: bool = True
    traffic_class: str = "payload"
    initiator: str = "host"
    name: str = "xfer"
    #: Set by validate(): the wire byte-count actually charged.
    wire_bytes: int = field(init=False, default=0)

    def validate(self) -> "TransferDescriptor":
        """Check geometry and fill ``wire_bytes``; raises DescriptorError."""
        if self.initiator not in ("host", "device"):
            raise DescriptorError(
                f"{self.name}: initiator must be 'host' or 'device', "
                f"not {self.initiator!r}"
            )
        nbytes = self.src.nbytes if self.nbytes is None else self.nbytes
        if nbytes < 0:
            raise DescriptorError(f"{self.name}: negative transfer size {nbytes}")
        if self.payload:
            # Byte comparison, not element counts: same-length buffers of
            # different dtypes carry different wire bytes, and the virtual
            # (zero-stride) buffers of PR 4 report shape-true nbytes.
            if self.src.nbytes != self.dst.nbytes:
                raise DescriptorError(
                    f"{self.name}: transfer size mismatch: src {self.src.nbytes} B "
                    f"vs dst {self.dst.nbytes} B"
                )
            if len(self.src.data) != len(self.dst.data) and not self.dst.is_virtual:
                raise DescriptorError(
                    f"{self.name}: dtype mismatch: {len(self.src.data)} "
                    f"x {self.src.data.dtype} src elements cannot land in "
                    f"{len(self.dst.data)} x {self.dst.data.dtype}"
                )
        self.wire_bytes = nbytes
        return self

    def splittable_elems(self) -> int:
        """Element count a striping policy may chunk, 0 when unsplittable.

        Payload stripes address element sub-ranges of both endpoints, so
        the buffers must agree element-for-element; control descriptors
        split at byte granularity and report 0 here.
        """
        if not self.payload:
            return 0
        if len(self.src.data) != len(self.dst.data):
            return 0
        return len(self.src.data)
