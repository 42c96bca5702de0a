"""Point-to-point protocol: eager + rendezvous, CUDA-aware.

Wire protocol (all control messages are active messages on AM id
``AM_P2P``; bulk data moves as fabric transfers, i.e. RMA puts):

* **eager** (host buffers <= eager threshold): RTS carries the payload;
  the receiver unpacks into the user buffer on match.
* **rendezvous** (everything else, including all device buffers):
  RTS (envelope only) -> receiver matches and answers CTS naming the
  target region -> sender puts the data directly (GPUDirect-style for
  device memory) -> FIN completes the receiver's request.

The receiver-side state machine runs in the rank's progression engine
(:mod:`repro.mpi.progress`); the functions here are the sender/receiver
API-side generators called from rank processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.errors import MpiMatchError, MpiUsageError
from repro.mpi.requests import PersistentRequest, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.mpi.runtime import MpiRuntime

AM_P2P = 1

RTS = "rts"
CTS = "cts"
FIN = "fin"

#: Extra wire bytes for any control envelope.
ENVELOPE_BYTES = 64


@dataclass
class Envelope:
    """A p2p control message."""

    kind: str
    comm_id: int
    src: int                 # communicator ranks
    dst: int
    tag: int
    nbytes: int
    send_seq: int = 0
    recv_seq: int = 0
    payload: Optional[np.ndarray] = field(default=None, repr=False)  # eager copy
    target: Optional[Buffer] = field(default=None, repr=False)       # CTS target


class SendRequest(Request):
    def __init__(self, rt: "MpiRuntime", buf: Buffer, dest: int, tag: int) -> None:
        super().__init__(rt, "send")
        self.buf = buf
        self.dest = dest
        self.tag = tag


class RecvRequest(Request):
    def __init__(self, rt: "MpiRuntime", buf: Buffer, source: int, tag: int) -> None:
        super().__init__(rt, "recv")
        self.buf = buf
        self.source = source
        self.tag = tag


# --------------------------------------------------------------------------
# sender side
# --------------------------------------------------------------------------

def _post_send(comm: "Communicator", sreq, buf: Buffer, dest: int, tag: int) -> Generator:
    """Shared send-protocol start: eager injection or rendezvous RTS."""
    rt = comm.rt
    worker = rt.worker
    # The callers range-check ``dest`` (isend, send_init).
    addr = rt.world.address_of(comm.group.world_ranks[dest])
    ep = worker.endpoints.get(addr.worker_id)
    if ep is None:  # first use: ep_create charges the endpoint's creation
        ep = yield from worker.ep_create(addr)
    nbytes = buf.nbytes
    if buf.space.host_accessible and nbytes <= rt.params.eager_threshold_bytes:
        env = Envelope(
            RTS, comm.comm_id, comm.rank, dest, tag, nbytes,
            send_seq=sreq.seq, payload=buf.data.copy(),
        )
        # Eager completes locally once the message is injected.
        yield ep.am_send(AM_P2P, env, nbytes=ENVELOPE_BYTES + nbytes)
        sreq._complete({"protocol": "eager"})
    else:
        rt.pending_sends[sreq.seq] = (sreq, buf, comm)
        env = Envelope(
            RTS, comm.comm_id, comm.rank, dest, tag, nbytes, send_seq=sreq.seq
        )
        yield ep.am_send(AM_P2P, env, nbytes=ENVELOPE_BYTES)


def isend(comm: "Communicator", buf: Buffer, dest: int, tag: int) -> Generator:
    """MPI_Isend. Returns a SendRequest; call as ``req = yield from ...``."""
    rt = comm.rt
    if not 0 <= dest < comm.size:
        raise MpiUsageError(f"isend: dest {dest} out of range for size {comm.size}")
    yield rt.params.mpi_call_overhead
    sreq = SendRequest(rt, buf, dest, tag)
    yield from _post_send(comm, sreq, buf, dest, tag)
    return sreq


def send(comm: "Communicator", buf: Buffer, dest: int, tag: int) -> Generator:
    """MPI_Send (blocking)."""
    sreq = yield from isend(comm, buf, dest, tag)
    yield from sreq.wait()


# --------------------------------------------------------------------------
# receiver side
# --------------------------------------------------------------------------

def irecv(comm: "Communicator", buf: Buffer, source: int, tag: int) -> Generator:
    """MPI_Irecv. Returns a RecvRequest."""
    rt = comm.rt
    yield rt.params.mpi_call_overhead + rt.params.mpi_match_cost
    rreq = RecvRequest(rt, buf, source, tag)
    rt.recv_by_seq[rreq.seq] = rreq
    matched = rt.matcher.post_recv(comm.comm_id, source, tag, rreq)
    if matched is not None:
        env, sender_addr = matched
        rt.progress.satisfy_recv(comm, rreq, env, sender_addr)
    return rreq


def recv(comm: "Communicator", buf: Buffer, source: int, tag: int) -> Generator:
    """MPI_Recv (blocking)."""
    rreq = yield from irecv(comm, buf, source, tag)
    return (yield from rreq.wait())


def sendrecv(
    comm: "Communicator",
    sendbuf: Buffer,
    dest: int,
    recvbuf: Buffer,
    source: int,
    sendtag: int = 0,
    recvtag: int = 0,
) -> Generator:
    """MPI_Sendrecv: concurrent send+recv, both complete before returning."""
    rreq = yield from irecv(comm, recvbuf, source, recvtag)
    sreq = yield from isend(comm, sendbuf, dest, sendtag)
    overhead = comm.rt.params.mpi_call_overhead
    for req in (sreq, rreq):  # the two MPI_Waits, inline
        yield overhead
        if not req._done_event._triggered:
            yield req._done_event


# --------------------------------------------------------------------------
# persistent requests (MPI_Send_init / MPI_Recv_init)
# --------------------------------------------------------------------------

class PersistentSendRequest(PersistentRequest):
    """MPI_Send_init: a reusable send; each MPI_Start runs one send."""

    def __init__(self, comm: "Communicator", buf: Buffer, dest: int, tag: int) -> None:
        super().__init__(comm.rt, "psend_std")
        if not 0 <= dest < comm.size:
            raise MpiUsageError(f"send_init: dest {dest} out of range")
        self.comm = comm
        self.buf = buf
        self.dest = dest
        self.tag = tag

    def start(self) -> Generator:
        rt = self.rt
        yield rt.params.mpi_call_overhead
        self._begin_epoch()
        # The protocol completes *this* request object; seq must be fresh
        # per epoch for pending-send bookkeeping.
        self.seq = next(rt.req_seqs)
        yield from _post_send(self.comm, self, self.buf, self.dest, self.tag)


class PersistentRecvRequest(PersistentRequest):
    """MPI_Recv_init: a reusable receive posting."""

    def __init__(self, comm: "Communicator", buf: Buffer, source: int, tag: int) -> None:
        super().__init__(comm.rt, "precv_std")
        self.comm = comm
        self.buf = buf
        self.source = source
        self.tag = tag

    def start(self) -> Generator:
        rt = self.rt
        yield rt.params.mpi_call_overhead + rt.params.mpi_match_cost
        self._begin_epoch()
        self.seq = next(rt.req_seqs)
        rt.recv_by_seq[self.seq] = self
        matched = rt.matcher.post_recv(self.comm.comm_id, self.source, self.tag, self)
        if matched is not None:
            env, sender_addr = matched
            rt.progress.satisfy_recv(self.comm, self, env, sender_addr)


def send_init(comm: "Communicator", buf: Buffer, dest: int, tag: int = 0) -> Generator:
    """MPI_Send_init (local, non-blocking)."""
    yield comm.rt.params.mpi_call_overhead
    return PersistentSendRequest(comm, buf, dest, tag)


def recv_init(comm: "Communicator", buf: Buffer, source: int, tag: int = 0) -> Generator:
    """MPI_Recv_init (local, non-blocking)."""
    yield comm.rt.params.mpi_call_overhead
    return PersistentRecvRequest(comm, buf, source, tag)


def check_truncation(env: Envelope, rreq: RecvRequest) -> None:
    if env.nbytes > rreq.buf.nbytes:
        raise MpiMatchError(
            f"message truncation: incoming {env.nbytes}B > posted {rreq.buf.nbytes}B "
            f"(src={env.src}, tag={env.tag})"
        )
