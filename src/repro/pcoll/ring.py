"""Algorithm 1: ring reduce-scatter-allgather allreduce schedule.

For rank ``r`` of ``P``, at step ``i`` of ``2(P-1)``::

    I = (r - 1) mod P          # predecessor in the ring
    O = (r + 1) mod P          # successor
    R = (r + 2P - i) mod P     # chunk sent this step
    A = (r + 2P - i - 1) mod P # chunk received this step
    op = MPI_Op  if i <  P-1   # reduce-scatter phase
         NOP     otherwise     # allgather phase

Each user partition's data splits into ``P`` ring chunks and pipelines
through the schedule independently — that is what makes the partitioned
allreduce overlap with the producing kernel.

:func:`ring_step` runs one step of the schedule inside a kernel, the way
NCCL's ring does; ``ncclAllReduce`` and the fused partitioned allreduce
both execute their rings with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.hw.memory import Buffer
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import MpiOp, NOP, SUM
from repro.pcoll.schedule import Schedule, Step
from repro.sim.resources import Flag
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device
    from repro.dataplane.plane import Dataplane

#: In-kernel cost of one ring step (flag spin + store issue).
RING_STEP_OVERHEAD = 0.35 * us


def ring_allreduce_schedule(rank: int, n_ranks: int, op: MpiOp = SUM) -> Schedule:
    """Build rank ``rank``'s ring-RSA schedule (paper Algorithm 1)."""
    if n_ranks < 2:
        raise MpiUsageError("ring allreduce needs at least 2 ranks")
    if not 0 <= rank < n_ranks:
        raise MpiUsageError(f"rank {rank} out of range for P={n_ranks}")
    incoming = ((rank - 1) % n_ranks,)
    outgoing = ((rank + 1) % n_ranks,)
    steps = []
    for i in range(2 * (n_ranks - 1)):
        send_chunk = (rank + 2 * n_ranks - i) % n_ranks
        recv_chunk = (rank + 2 * n_ranks - i - 1) % n_ranks
        step_op = op if i < (n_ranks - 1) else NOP
        steps.append(Step(incoming, send_chunk, step_op, outgoing, recv_chunk))
    return Schedule(rank, n_ranks, n_chunks=n_ranks, steps=tuple(steps), name="ring_rsa")


def ring_step(
    device: "Device",
    dataplane: "Dataplane",
    step: Step,
    chunk: Callable[[int], Buffer],
    dst: Buffer,
    dst_flag: Flag,
    slot: Buffer,
    flag: Flag,
    traffic_class: str,
    name: str,
) -> Generator:
    """One schedule step inside a kernel on ``device``.

    ``chunk(k)`` is this rank's view of ring chunk ``k``.  The step stores
    chunk ``R`` into the right peer's staging slot ``dst`` and raises
    ``dst_flag`` when it lands, spins on its own ``flag`` until the left
    peer's chunk is in ``slot``, then reduces (or, in the allgather phase,
    copies) it into chunk ``A`` at HBM speed.  All coordination is device
    memory: no host thread, launch or stream synchronization per step.
    """
    engine = device.engine
    yield engine.timeout(RING_STEP_OVERHEAD)
    put = dataplane.put(
        chunk(step.send_chunk), dst,
        traffic_class=traffic_class, initiator="device", name=name,
    )
    put.add_callback(lambda _ev: dst_flag.set())
    if not flag.is_set:
        yield flag.wait()
    target = chunk(step.recv_chunk)
    hbm_bw = device.cost.hbm_bw
    if step.op is not NOP:
        step.op.reduce_into(target.data, slot.data)
        yield engine.timeout(target.nbytes * 3 / hbm_bw)
    else:
        target.data[:] = slot.data
        yield engine.timeout(target.nbytes * 2 / hbm_bw)


def verify_ring_completion(n_ranks: int) -> bool:
    """Static sanity check: after the schedule, every chunk is fully
    reduced and present on every rank.  Used by tests/property checks."""
    # Track which (rank, chunk) holds a fully-reduced copy.
    contributions = {
        (r, c): {r} for r in range(n_ranks) for c in range(n_ranks)
    }
    schedules = [ring_allreduce_schedule(r, n_ranks) for r in range(n_ranks)]
    for i in range(2 * (n_ranks - 1)):
        # All sends within a step read the pre-step state (they are
        # concurrent on the wire); snapshot before applying.
        before = {k: set(v) for k, v in contributions.items()}
        for r in range(n_ranks):
            s = schedules[r].steps[i]
            dst = s.outgoing[0]
            chunk = s.send_chunk
            if s.op is not NOP:
                contributions[(dst, chunk)] |= before[(r, chunk)]
            else:
                contributions[(dst, chunk)] = set(before[(r, chunk)])
    full = set(range(n_ranks))
    return all(contributions[(r, c)] == full for r in range(n_ranks) for c in range(n_ranks))
