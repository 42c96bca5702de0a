"""MPI Partitioned Collectives (paper Section IV-B).

The second contribution: a *generic schedule* representation for
partitioned collectives — each step is a tuple ``S_i = (I, R, op, O, A)``
of incoming neighbours, send-chunk offset, reduction op (or NOP), outgoing
neighbours, and receive-chunk offset — plus an Algorithm-2-style
progression in which **each user partition independently executes the
schedule** with its own state.

Provided schedules:

* :func:`~repro.pcoll.ring.ring_allreduce_schedule` — Algorithm 1's
  Ring-based reduce-scatter-allgather;
* :func:`~repro.pcoll.tree.binomial_bcast_schedule` — a computation-free
  (all-NOP) broadcast tree.

The traditional host collectives (:mod:`repro.mpi.collectives`) and the
replay lowering walk the same schedules.

API entry points (through :class:`~repro.mpi.comm.Communicator`):
``pallreduce_init`` and ``pbcast_init`` return a
:class:`~repro.pcoll.request.PcollRequest` with the familiar partitioned
control flow: ``start`` -> ``pbuf_prepare`` -> ``pready(u)`` (host or via a
device MPIX_Prequest) -> ``wait``.  The package exports only the schedule
vocabulary: the request classes load with :mod:`repro.pcoll.api`.
"""

from repro.pcoll.schedule import Schedule, Step
from repro.pcoll.ring import ring_allreduce_schedule
from repro.pcoll.rd import recursive_doubling_allreduce_schedule
from repro.pcoll.tree import (
    binomial_bcast_schedule,
    binomial_reduce_schedule,
    flat_reduce_schedule,
)

__all__ = [
    "Schedule",
    "Step",
    "binomial_bcast_schedule",
    "binomial_reduce_schedule",
    "flat_reduce_schedule",
    "recursive_doubling_allreduce_schedule",
    "ring_allreduce_schedule",
]
