"""Transfer descriptors: what a producer asks the dataplane to move.

A descriptor is pure data — source/destination buffers (or a bare wire
byte-count for control traffic), a traffic class for the ledger, and
the completion-time payload semantics.  How it is issued is not part of
it: the dataplane method a producer calls decides that (``rma_put`` is
the host-issued put that may stage through a copy engine).  Validation
lives here so every producer, local or cross-shard, gets the same
checks: wire sizes are compared in *bytes* (element counts hide dtype
mismatches), and payload transfers additionally require matching
element geometry unless the destination is a virtual (geometry-only)
buffer — such as a cross-shard ``RemoteBuffer`` — that never
materializes the copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.memory import Buffer


class DescriptorError(ValueError):
    """A descriptor failed validation before touching the fabric."""


@dataclass(slots=True)
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
        size (envelopes, flag packets) than the probe buffers suggest.  A
        payload descriptor's override must equal ``src.nbytes``: its
        arrival copies the whole buffer.
    payload:
        When True the destination receives the source bytes at wire
        completion (RMA visibility: a reader that waits observes new
        data, a racing reader observes old data).  When False only time
        and link occupancy are charged; the caller applies any logical
        content itself.
    traffic_class:
        Ledger key ("rma", "eager", "rndv", "pcoll", "nccl", ...).
    name:
        Name for the transfer (labels its fault records and its repr).
    """

    src: Buffer
    dst: Buffer
    nbytes: Optional[int] = None
    payload: bool = True
    traffic_class: str = "payload"
    name: str = "xfer"
    #: Set by validate(): the wire byte-count actually charged.
    wire_bytes: int = field(init=False, default=0)

    def validate(self) -> "TransferDescriptor":
        """Check geometry and fill ``wire_bytes``; raises DescriptorError."""
        src, dst, name = self.src, self.dst, self.name
        size = src.data.nbytes  # dst.nbytes below: dst may be a data-less RemoteBuffer
        nbytes = size if self.nbytes is None else self.nbytes
        if nbytes < 0:
            raise DescriptorError(f"{name}: negative transfer size {nbytes}")
        if self.payload:
            # Byte comparison, not element counts: same-length buffers of
            # different dtypes carry different wire bytes, and virtual
            # (zero-stride) buffers report shape-true nbytes.
            if nbytes != size:
                raise DescriptorError(
                    f"{name}: payload size override {nbytes} B differs from "
                    f"the {size} B payload the arrival copies"
                )
            dst_size = dst.nbytes
            if size != dst_size:
                raise DescriptorError(
                    f"{name}: transfer size mismatch: src {size} B "
                    f"vs dst {dst_size} B"
                )
            if not dst.is_virtual and len(src.data) != len(dst.data):
                raise DescriptorError(
                    f"{name}: dtype mismatch: {len(src.data)} "
                    f"x {src.data.dtype} src elements cannot land in "
                    f"{len(dst.data)} x {dst.data.dtype}"
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
