"""Static completion checks over whole pcoll schedule sets.

Each walks every rank's schedule step by step, the sends of one step
reading the state from before it (they are concurrent on the wire), and
reports whether the collective ends complete.
"""

from repro.mpi.ops import NOP
from repro.pcoll.rd import recursive_doubling_allreduce_schedule
from repro.pcoll.ring import ring_allreduce_schedule
from repro.pcoll.tree import binomial_bcast_schedule


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


def verify_bcast_coverage(n_ranks: int, root: int = 0) -> bool:
    """Static check: the forest of sends reaches every rank exactly once."""
    schedules = [binomial_bcast_schedule(r, n_ranks, root) for r in range(n_ranks)]
    has_data = {root}
    recv_count = {r: 0 for r in range(n_ranks)}
    rounds = len(schedules[0].steps)
    for k in range(rounds):
        snapshot = set(has_data)
        for r in range(n_ranks):
            step = schedules[r].steps[k]
            for dst in step.outgoing:
                if r not in snapshot:
                    return False  # sending data it does not have yet
                # The receiver must expect it this round.
                if r not in schedules[dst].steps[k].incoming:
                    return False
                has_data.add(dst)
                recv_count[dst] += 1
    return has_data == set(range(n_ranks)) and all(
        recv_count[r] == (0 if r == root else 1) for r in range(n_ranks)
    )


def verify_rd_completion(n_ranks: int) -> bool:
    """Static check: every rank ends holding every rank's contribution."""
    contributions = {r: {r} for r in range(n_ranks)}
    schedules = [recursive_doubling_allreduce_schedule(r, n_ranks) for r in range(n_ranks)]
    for i in range(schedules[0].n_steps):
        before = {r: set(c) for r, c in contributions.items()}
        for r in range(n_ranks):
            partner = schedules[r].steps[i].incoming[0]
            contributions[r] |= before[partner]
    full = set(range(n_ranks))
    return all(contributions[r] == full for r in range(n_ranks))
