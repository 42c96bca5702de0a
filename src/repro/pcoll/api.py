"""MPIX_P<collective>_init entry points.

Generalized collective initialization (paper Section IV-B1): the current
proposals enumerate 21+ per-collective init functions; this module derives
each from a schedule builder plus the shared :class:`PcollRequest`
machinery, exactly the burden-reduction argument the paper makes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.hw.memory import Buffer
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, SUM
from repro.pcoll.fused import FusedPallreduce
from repro.pcoll.rd import recursive_doubling_allreduce_schedule
from repro.pcoll.request import PcollRequest
from repro.pcoll.ring import ring_allreduce_schedule
from repro.pcoll.tree import binomial_bcast_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.mpi.comm import Communicator

#: MPIX_Pallreduce_init's ``algorithm`` names and their schedule builders.
_ALLREDUCE_SCHEDULES = {
    "ring": ring_allreduce_schedule,
    "recursive_doubling": recursive_doubling_allreduce_schedule,
}


def pallreduce_init(
    comm: "Communicator",
    sendbuf: Buffer,
    recvbuf: Buffer,
    partitions: int,
    op: MpiOp = SUM,
    device: Optional["Device"] = None,
    algorithm: str = "ring",
    fused: bool = False,
) -> Generator:
    """MPIX_Pallreduce_init: ring reduce-scatter-allgather by default.

    The Ring algorithm maximizes bandwidth for large messages and is the
    one the paper evaluates (machine-learning context, Section VI-B).

    ``fused=True`` selects the paper's proposed relaxed device semantics
    (Section VI-B): the whole ring collective executes inside the kernel —
    NVLink-clique only.  See :mod:`repro.pcoll.fused`.
    """
    if algorithm not in _ALLREDUCE_SCHEDULES:
        raise MpiUsageError(f"unknown allreduce algorithm {algorithm!r}")
    if fused and algorithm != "ring":
        raise MpiUsageError(
            f"fused=True runs the ring; it cannot run algorithm {algorithm!r}"
        )
    if comm.size < 2:
        raise MpiUsageError("pallreduce needs at least 2 ranks")
    op.check("pallreduce_init", sendbuf.data.dtype)
    rt = comm.rt
    yield rt.params.mpi_call_overhead
    device = device or rt.device
    if fused:
        req: PcollRequest = FusedPallreduce(comm, sendbuf, recvbuf, partitions, op, device)
    else:
        schedule = _ALLREDUCE_SCHEDULES[algorithm](comm.rank, comm.size, op)
        req = PcollRequest(
            comm, sendbuf, recvbuf, partitions, op, schedule, device, name="pallreduce",
        )
    yield from req._init_channels()
    return req


def pbcast_init(
    comm: "Communicator",
    buf: Buffer,
    partitions: int,
    root: int = 0,
    device: Optional["Device"] = None,
) -> Generator:
    """MPIX_Pbcast_init: binomial tree, all-NOP schedule."""
    rt = comm.rt
    yield rt.params.mpi_call_overhead
    schedule = binomial_bcast_schedule(comm.rank, comm.size, root)
    req = PcollRequest(
        comm, buf, buf, partitions, SUM, schedule,
        device or rt.device, name="pbcast",
    )
    yield from req._init_channels()
    return req


def preduce_init(
    comm: "Communicator",
    buf: Buffer,
    partitions: int,
    op: MpiOp = SUM,
    root: int = 0,
    device: Optional["Device"] = None,
    algorithm: str = "binomial",
) -> Generator:
    """MPIX_Preduce_init: reduce to ``root`` (in place).

    ``binomial`` runs the bcast tree backwards (log rounds); ``flat`` is
    the one-step linear schedule whose root step has every other rank as
    an incoming neighbour — the multi-neighbour case of Algorithm 2.
    The buffer is both contribution and (at the root) result; non-root
    buffers hold partial reductions afterwards, like an in-place
    MPI_Reduce's send buffer.
    """
    from repro.pcoll.tree import binomial_reduce_schedule, flat_reduce_schedule

    if algorithm == "binomial":
        schedule = binomial_reduce_schedule(comm.rank, comm.size, op, root)
    elif algorithm == "flat":
        schedule = flat_reduce_schedule(comm.rank, comm.size, op, root)
    else:
        raise MpiUsageError(f"unknown reduce algorithm {algorithm!r}")
    rt = comm.rt
    yield rt.params.mpi_call_overhead
    req = PcollRequest(
        comm, buf, buf, partitions, op, schedule,
        device or rt.device, name="preduce",
    )
    yield from req._init_channels()
    return req
