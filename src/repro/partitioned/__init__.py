"""MPI Partitioned Point-to-Point with GPU-initiated extensions.

The paper's primary contribution (Section IV-A): a UCX-based partitioned
communication component for MPI with device bindings.

Host API (MPI-4.0 + MPIX extensions), all rank-process generators:

* ``comm.psend_init(buf, partitions, dest, tag)`` /
  ``comm.precv_init(buf, partitions, source, tag)`` — persistent channel
  setup; non-blocking, exchanges the ``setup_t`` object;
* ``req.start()`` — open an epoch (MPI_Start);
* ``req.pbuf_prepare()`` — MPIX_Pbuf_prepare: guarantees the receiver's
  buffer is ready (full rkey handshake on first call, ready-to-receive
  signal afterwards);
* ``req.pready(i)`` / ``req.parrived(i)`` — host bindings (RMA put + chained
  completion-flag put);
* ``req.prequest_create(...)`` — MPIX_Prequest_create: builds the
  device-resident request (copy mode, aggregation threshold, counters);
* ``req.wait()`` — MPI_Wait.

Device API (called from kernel bodies / wave hooks,
:mod:`repro.partitioned.device`):

* ``pready(blk, preq)`` — device MPIX_Pready of one block, with the
  thread/warp/block signal aggregation (Fig 3) and the copy mode the
  prequest fixed: Progression Engine, or Kernel-Copy direct NVLink stores
  through the ``rkey_ptr``-mapped remote buffer (Fig 4);
* ``pready_wave`` — the bulk form used by
  :class:`~repro.cuda.kernel.UniformKernel` wave hooks.
"""

from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.partitioned.prequest import CopyMode, Prequest
from repro.partitioned.p2p import PrecvRequest, PsendRequest, psend_init, precv_init

__all__ = [
    "AggregationSpec",
    "CopyMode",
    "PrecvRequest",
    "Prequest",
    "PsendRequest",
    "SignalMode",
    "precv_init",
    "psend_init",
]
