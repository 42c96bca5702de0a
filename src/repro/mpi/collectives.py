"""Traditional (non-partitioned) collectives — the paper's baselines.

These model what a production Open MPI delivers for device buffers today
and are what Figures 6/7/10/11 compare against.  Apart from the
dissemination ``barrier`` they walk ``pcoll`` schedules (paper Section
IV-B) on the host with :func:`_walk`:

* ``bcast`` — the binomial tree, all NOPs;
* ``reduce`` — the binomial tree run backwards, with CPU reductions;
* ``allreduce`` — the ring; for device buffers the *host-staged* path:
  D2H copy, the ring between host buffers, then H2D copy.  This
  serialization (plus the application's preceding
  ``cudaStreamSynchronize``) is why the paper finds partitioned allreduce
  "multiple orders of magnitude" faster at the kernel+comm level.

All are generator functions executed *in the calling rank's process*; every
rank of the communicator must call them.  They send on the communicator's
private context (:meth:`Communicator.coll`), which no user receive matches.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Generator, Optional

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import NOP, MpiOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.pcoll.schedule import Schedule

#: First tag of each collective on the collective context; step ``i``
#: is tagged ``base + i``.  The barrier and the trees take at most
#: ceil(log2 P) < 32 steps and the ring 2(P-1), so the ring comes last
#: and no two collectives share a tag.
_BARRIER_TAG = 0
_BCAST_TAG = 32
_REDUCE_TAG = 64
_RING_TAG = 96


def _scratch(comm: "Communicator", role: str, n: int, dtype) -> Buffer:
    """This rank's pinned host scratch ``role`` for ``comm``.

    The rank's runtime keeps one buffer per ``(comm_id, role)`` across
    calls and replaces it only when ``n`` or ``dtype`` changes.  Reuse is
    safe because a collective is blocking: every transfer touching its
    scratch completes before it returns.
    """
    table = comm.rt.scratch
    key = (comm.comm_id, role)
    buf = table.get(key)
    if buf is None or len(buf.data) != n or buf.data.dtype != dtype:
        buf = table[key] = Buffer.alloc(n, dtype, MemSpace.PINNED, node=comm.rt.node)
    return buf


def _walk(
    comm: "Communicator", sched: "Schedule", chunk: Callable[[int], Buffer],
    tmp: Optional[Buffer], tag: int, penalty: float,
) -> Generator:
    """Run ``sched`` on the host, one blocking exchange per step.

    ``chunk(k)`` is this rank's view of chunk ``k``, as for
    :func:`~repro.pcoll.ring.ring_step`.  A step sends chunk ``R`` and
    receives into chunk ``A``, or into ``tmp`` and then reduces that into
    ``A`` on the CPU (an all-NOP schedule needs no ``tmp``).  Every step
    that communicates first costs ``penalty``.
    """
    coll = comm.coll()
    reduce_bw = comm.rt.params.cpu_reduce_bw
    for i, step in enumerate(sched.steps):
        if not (step.incoming or step.outgoing):
            continue
        if penalty:
            yield penalty
        reducing = step.op is not NOP
        into = tmp if reducing else chunk(step.recv_chunk)
        if step.incoming and step.outgoing:
            yield from coll.sendrecv(chunk(step.send_chunk), step.outgoing[0], into,
                                     step.incoming[0], sendtag=tag + i, recvtag=tag + i)
        elif step.outgoing:
            yield from coll.send(chunk(step.send_chunk), step.outgoing[0], tag=tag + i)
        else:
            yield from coll.recv(into, step.incoming[0], tag=tag + i)
        if step.incoming and reducing:
            yield tmp.nbytes / reduce_bw
            step.op.reduce_into(chunk(step.recv_chunk).data, tmp.data)


def barrier(comm: "Communicator") -> Generator:
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        yield comm.rt.params.mpi_call_overhead
        return
    coll = comm.coll()
    token = _scratch(comm, "barrier_token", 1, np.int8)
    rbuf = _scratch(comm, "barrier_recv", 1, np.int8)
    rounds = math.ceil(math.log2(size))
    for k in range(rounds):
        dist = 1 << k
        dest = (rank + dist) % size
        src = (rank - dist) % size
        yield from coll.sendrecv(
            token, dest, rbuf, src, sendtag=_BARRIER_TAG + k, recvtag=_BARRIER_TAG + k
        )


def bcast(comm: "Communicator", buf: Buffer, root: int = 0) -> Generator:
    """Binomial-tree broadcast (an all-NOP schedule)."""
    from repro.pcoll.tree import binomial_bcast_schedule

    sched = binomial_bcast_schedule(comm.rank, comm.size, root)  # checks root
    if comm.size == 1:
        yield comm.rt.params.mpi_call_overhead
        return
    yield from _walk(comm, sched, lambda _k: buf, None, _BCAST_TAG, 0.0)


def allreduce(
    comm: "Communicator", sendbuf: Buffer, recvbuf: Buffer, op: MpiOp
) -> Generator:
    """MPI_Allreduce; host-staged when the buffers live in device memory."""
    rt = comm.rt
    n = len(sendbuf.data)
    if n != len(recvbuf.data):
        raise MpiUsageError("allreduce: sendbuf/recvbuf length mismatch")
    op.check("allreduce", sendbuf.data.dtype)
    if comm.size == 1:
        yield rt.params.mpi_call_overhead
        recvbuf.copy_from(sendbuf)
        return
    if n % comm.size != 0:
        # Ring chunking needs divisibility; small/odd counts (e.g. scalar
        # norms) take the reduce + bcast path instead.
        yield from reduce(comm, sendbuf, recvbuf, op, root=0)
        yield from bcast(comm, recvbuf, root=0)
        return

    from repro.pcoll.ring import ring_allreduce_schedule

    sched = ring_allreduce_schedule(comm.rank, comm.size, op)
    m = n // comm.size  # elements per ring chunk
    tmp = _scratch(comm, "ring_recv", m, sendbuf.data.dtype)
    staged = not sendbuf.space.host_accessible or not recvbuf.space.host_accessible
    if staged:
        # Stage to host (D2H), reduce on CPUs, stage back (H2D).  The
        # staging is *blocking and chunked* through a small bounce buffer
        # (per-chunk cudaMemcpy + synchronize), matching the production
        # CUDA-aware path the paper measures against: each ring step pays
        # ceil(step_bytes / bounce) * penalty on top of the wire time.
        host = _scratch(comm, "ring_host", n, sendbuf.data.dtype)
        bounce = rt.params.allreduce_bounce_bytes
        penalty = rt.params.allreduce_bounce_penalty
        n_chunks = math.ceil(sendbuf.nbytes / bounce)
        yield n_chunks * penalty
        yield rt.fabric.dataplane.put(sendbuf, host, traffic_class="coll", name="ar_d2h")
        step_penalty = max(1, math.ceil(tmp.nbytes / bounce)) * penalty
    else:
        recvbuf.copy_from(sendbuf)
        host = Buffer(recvbuf.data, MemSpace.PINNED, node=rt.node)
        step_penalty = 0.0
    chunks = [host.view(k * m, m) for k in range(comm.size)]
    yield from _walk(comm, sched, chunks.__getitem__, tmp, _RING_TAG, step_penalty)
    if staged:
        yield n_chunks * penalty
        yield rt.fabric.dataplane.put(host, recvbuf, traffic_class="coll", name="ar_h2d")


def reduce(
    comm: "Communicator",
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    op: MpiOp,
    root: int = 0,
) -> Generator:
    """Binomial reduce to ``root`` (host-staged for device buffers)."""
    from repro.pcoll.tree import binomial_reduce_schedule

    sched = binomial_reduce_schedule(comm.rank, comm.size, op, root)  # checks root
    rt = comm.rt
    n = len(sendbuf.data)
    if comm.rank == root and (recvbuf is None or len(recvbuf.data) != n):
        raise MpiUsageError(f"reduce: root must supply a recvbuf of {n} elements")
    op.check("reduce", sendbuf.data.dtype)

    acc = _scratch(comm, "reduce_acc", n, sendbuf.data.dtype)
    if sendbuf.space.host_accessible:
        acc.data[:] = sendbuf.data
    else:
        yield rt.fabric.dataplane.put(sendbuf, acc, traffic_class="coll", name="red_d2h")
    tmp = _scratch(comm, "reduce_recv", n, sendbuf.data.dtype)
    yield from _walk(comm, sched, lambda _k: acc, tmp, _REDUCE_TAG, 0.0)

    if comm.rank == root:
        if recvbuf.space.host_accessible:
            recvbuf.data[:] = acc.data
        else:
            yield rt.fabric.dataplane.put(acc, recvbuf, traffic_class="coll", name="red_h2d")
