"""The dataplane: one transfer layer for every simulated byte.

Every subsystem that moves data — UCX puts, MPI eager/rendezvous, the
partitioned completion-flag puts, NCCL ring steps, CUDA memcpys — submits
a :class:`~repro.dataplane.descriptor.TransferDescriptor` to the machine's
:class:`~repro.dataplane.plane.Dataplane` instead of driving
:func:`repro.hw.links.start_transfer` directly.  The dataplane validates
the descriptor, resolves routes over the
:class:`~repro.hw.spec.graph.LinkGraph`, accounts the bytes in a per-class
:class:`~repro.dataplane.ledger.Ledger`, and executes through a pluggable
:class:`~repro.dataplane.policy.PathPolicy`:

* :class:`~repro.dataplane.policy.SinglePathPolicy` (default) replays the
  pre-dataplane behaviour byte-identically — one link transfer on the
  fewest-links route;
* :class:`~repro.dataplane.policy.MultiPathPolicy` stripes large transfers
  across link-disjoint routes (parallel NVLink detours intra-node, dual
  rails inter-node) with deterministic chunking; completion fires at the
  max of the stripe arrivals.

A run picks its policy by name (``Workload.run(policy="multi")``), which
reaches every fabric the run builds through its
:class:`~repro.sim.run.Run`.  See DESIGN.md §12.
"""

from repro.dataplane.descriptor import DescriptorError, TransferDescriptor
from repro.dataplane.ledger import ClassUsage, Ledger
from repro.dataplane.plane import Dataplane
from repro.dataplane.policy import (
    MultiPathPolicy,
    PathPolicy,
    SinglePathPolicy,
    Stripe,
    policy_by_name,
)

__all__ = [
    "ClassUsage",
    "Dataplane",
    "DescriptorError",
    "Ledger",
    "MultiPathPolicy",
    "PathPolicy",
    "SinglePathPolicy",
    "Stripe",
    "TransferDescriptor",
    "policy_by_name",
]
