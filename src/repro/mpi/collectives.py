"""Traditional (non-partitioned) collectives — the paper's baselines.

These model what a production Open MPI delivers for device buffers today
and are what Figures 6/7/10/11 compare against:

* ``barrier`` — dissemination algorithm over 0-byte messages;
* ``bcast`` — binomial tree;
* ``allreduce`` — for device buffers, the *host-staged* path: D2H copy,
  ring reduce-scatter + allgather between host buffers with CPU
  reductions, then H2D copy.  This serialization (plus the application's
  preceding ``cudaStreamSynchronize``) is why the paper finds partitioned
  allreduce "multiple orders of magnitude" faster at the kernel+comm level;
* ``reduce`` / ``allgather`` — minimal tree/ring forms used by apps.

All are generator functions executed *in the calling rank's process*; every
rank of the communicator must call them (they communicate, they do not
consult global state).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator

#: Tag space reserved for collective traffic (separate from user tags).
_COLL_TAG = 1 << 20


def _tmp_host(comm: "Communicator", n: int, dtype) -> Buffer:
    return Buffer.alloc(n, dtype, MemSpace.PINNED, node=comm.rt.node)


def barrier(comm: "Communicator") -> Generator:
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    rt = comm.rt
    size, rank = comm.size, comm.rank
    if size == 1:
        yield rt.params.mpi_call_overhead
        return
    token = _tmp_host(comm, 1, np.int8)
    rbuf = _tmp_host(comm, 1, np.int8)
    rounds = math.ceil(math.log2(size))
    for k in range(rounds):
        dist = 1 << k
        dest = (rank + dist) % size
        src = (rank - dist) % size
        yield from comm.sendrecv(
            token, dest, rbuf, src, sendtag=_COLL_TAG + k, recvtag=_COLL_TAG + k
        )


def bcast(comm: "Communicator", buf: Buffer, root: int = 0) -> Generator:
    """Binomial-tree broadcast."""
    size = comm.size
    if not 0 <= root < size:
        raise MpiUsageError(f"bcast root {root} out of range")
    if size == 1:
        yield comm.rt.params.mpi_call_overhead
        return
    # Rotate so the root is virtual rank 0.
    vrank = (comm.rank - root) % size
    mask = 1
    # Receive phase: find our parent.
    while mask < size:
        if vrank & mask:
            parent = ((vrank - mask) % size + root) % size
            yield from comm.recv(buf, parent, tag=_COLL_TAG + 16)
            break
        mask <<= 1
    # Send phase: forward to children below our lowest set bit.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = ((vrank + mask) % size + root) % size
            yield from comm.send(buf, child, tag=_COLL_TAG + 16)
        mask >>= 1


def _ring_allreduce_host(
    comm: "Communicator", work: np.ndarray, op: MpiOp, per_step_penalty: float = 0.0
) -> Generator:
    """In-place ring reduce-scatter + allgather on a host array.

    Charges CPU reduction time per step; communication goes through the
    normal p2p path (host buffers).  ``per_step_penalty`` adds the
    bounce-buffer chunking cost of the device-staged path.
    """
    rt = comm.rt
    size, rank = comm.size, comm.rank
    n = len(work)
    if n % size != 0:
        raise MpiUsageError(
            f"host ring allreduce requires count ({n}) divisible by size ({size})"
        )
    chunk = n // size
    wrap = Buffer(work, MemSpace.PINNED, node=rt.node)
    tmp = _tmp_host(comm, chunk, work.dtype)
    right = (rank + 1) % size
    left = (rank - 1) % size

    # Reduce-scatter: after step i, chunk (rank+1) mod P holds partials.
    for i in range(size - 1):
        send_idx = (rank - i) % size
        recv_idx = (rank - i - 1) % size
        if per_step_penalty:
            yield per_step_penalty
        yield from comm.sendrecv(
            wrap.view(send_idx * chunk, chunk), right, tmp, left,
            sendtag=_COLL_TAG + 32 + i, recvtag=_COLL_TAG + 32 + i,
        )
        # CPU reduction of the received chunk.
        yield tmp.nbytes / rt.params.cpu_reduce_bw
        op.reduce_into(work[recv_idx * chunk : (recv_idx + 1) * chunk], tmp.data)

    # Allgather: circulate completed chunks.
    for i in range(size - 1):
        send_idx = (rank + 1 - i) % size
        recv_idx = (rank - i) % size
        if per_step_penalty:
            yield per_step_penalty
        yield from comm.sendrecv(
            wrap.view(send_idx * chunk, chunk), right,
            wrap.view(recv_idx * chunk, chunk), left,
            sendtag=_COLL_TAG + 64 + i, recvtag=_COLL_TAG + 64 + i,
        )


def allreduce(
    comm: "Communicator", sendbuf: Buffer, recvbuf: Buffer, op: MpiOp
) -> Generator:
    """MPI_Allreduce; host-staged when the buffers live in device memory."""
    rt = comm.rt
    if len(sendbuf.data) != len(recvbuf.data):
        raise MpiUsageError("allreduce: sendbuf/recvbuf length mismatch")
    if comm.size == 1:
        yield rt.params.mpi_call_overhead
        recvbuf.copy_from(sendbuf)
        return
    if len(sendbuf.data) % comm.size != 0:
        # Ring chunking needs divisibility; small/odd counts (e.g. scalar
        # norms) take the reduce + bcast path instead.
        yield from reduce(comm, sendbuf, recvbuf, op, root=0)
        yield from bcast(comm, recvbuf, root=0)
        return

    device_buffers = not sendbuf.space.host_accessible or not recvbuf.space.host_accessible
    if device_buffers:
        # Stage to host (D2H), reduce on CPUs, stage back (H2D).  The
        # staging is *blocking and chunked* through a small bounce buffer
        # (per-chunk cudaMemcpy + synchronize), matching the production
        # CUDA-aware path the paper measures against: each ring step pays
        # ceil(step_bytes / bounce) * penalty on top of the wire time.
        host = _tmp_host(comm, len(sendbuf.data), sendbuf.data.dtype)
        bounce = rt.params.allreduce_bounce_bytes
        penalty = rt.params.allreduce_bounce_penalty
        n_chunks = math.ceil(sendbuf.nbytes / bounce)
        yield n_chunks * penalty
        yield rt.fabric.dataplane.put(
            sendbuf, host, traffic_class="coll", name="ar_d2h"
        )
        step_bytes = sendbuf.nbytes // comm.size
        step_chunks = max(1, math.ceil(step_bytes / bounce))
        yield from _ring_allreduce_host(
            comm, host.data, op, per_step_penalty=step_chunks * penalty
        )
        yield n_chunks * penalty
        yield rt.fabric.dataplane.put(
            host, recvbuf, traffic_class="coll", name="ar_h2d"
        )
    else:
        recvbuf.copy_from(sendbuf)
        yield from _ring_allreduce_host(comm, recvbuf.data, op)


def reduce(
    comm: "Communicator",
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    op: MpiOp,
    root: int = 0,
) -> Generator:
    """Flat binomial reduce to ``root`` (host-staged for device buffers)."""
    rt = comm.rt
    size = comm.size
    vrank = (comm.rank - root) % size

    acc = _tmp_host(comm, len(sendbuf.data), sendbuf.data.dtype)
    if sendbuf.space.host_accessible:
        acc.data[:] = sendbuf.data
    else:
        yield rt.fabric.dataplane.put(
            sendbuf, acc, traffic_class="coll", name="red_d2h"
        )

    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            yield from comm.send(acc, parent, tag=_COLL_TAG + 96)
            break
        partner = vrank | mask
        if partner < size:
            tmp = _tmp_host(comm, len(sendbuf.data), sendbuf.data.dtype)
            yield from comm.recv(tmp, ((partner + root) % size), tag=_COLL_TAG + 96)
            yield tmp.nbytes / rt.params.cpu_reduce_bw
            op.reduce_into(acc.data, tmp.data)
        mask <<= 1

    if comm.rank == root:
        if recvbuf is None:
            raise MpiUsageError("reduce: root must supply recvbuf")
        if recvbuf.space.host_accessible:
            recvbuf.data[:] = acc.data
        else:
            yield rt.fabric.dataplane.put(
                acc, recvbuf, traffic_class="coll", name="red_h2d"
            )


def allgather(comm: "Communicator", sendbuf: Buffer, recvbuf: Buffer) -> Generator:
    """Ring allgather: recvbuf[rank*chunk : ...] slots, chunk = len(sendbuf)."""
    rt = comm.rt
    size, rank = comm.size, comm.rank
    chunk = len(sendbuf.data)
    if len(recvbuf.data) != chunk * size:
        raise MpiUsageError("allgather: recvbuf must hold size * len(sendbuf)")
    own = recvbuf.view(rank * chunk, chunk)
    if own.space == sendbuf.space and own.node == sendbuf.node:
        own.copy_from(sendbuf)
    else:
        yield rt.fabric.dataplane.put(
            sendbuf, own, traffic_class="coll", name="ag_local"
        )
    if size == 1:
        yield rt.params.mpi_call_overhead
        return
    right, left = (rank + 1) % size, (rank - 1) % size
    for i in range(size - 1):
        send_idx = (rank - i) % size
        recv_idx = (rank - i - 1) % size
        yield from comm.sendrecv(
            recvbuf.view(send_idx * chunk, chunk), right,
            recvbuf.view(recv_idx * chunk, chunk), left,
            sendtag=_COLL_TAG + 128 + i, recvtag=_COLL_TAG + 128 + i,
        )
