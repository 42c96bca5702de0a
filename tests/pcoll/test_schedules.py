"""Schedule construction: Algorithm 1 ring, binomial tree, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import NOP, SUM
from repro.pcoll.ring import ring_allreduce_schedule
from repro.pcoll.schedule import Schedule, Step
from repro.pcoll.tree import binomial_bcast_schedule

from .verify import verify_bcast_coverage, verify_ring_completion


# -- Step / Schedule validation ------------------------------------------------

def test_step_requires_chunks_when_neighboured():
    with pytest.raises(MpiUsageError):
        Step(incoming=(1,), send_chunk=0, op=NOP, outgoing=(), recv_chunk=-1)
    with pytest.raises(MpiUsageError):
        Step(incoming=(), send_chunk=-1, op=NOP, outgoing=(1,), recv_chunk=0)


def test_schedule_rejects_bad_neighbours():
    s = Step((1,), 0, NOP, (), 0)
    with pytest.raises(MpiUsageError):
        Schedule(rank=0, n_ranks=1, n_chunks=1, steps=(s,))  # neighbour 1 >= P
    self_step = Step((0,), 0, NOP, (), 0)
    with pytest.raises(MpiUsageError):
        Schedule(rank=0, n_ranks=2, n_chunks=1, steps=(self_step,))


def test_schedule_rejects_bad_chunks():
    s = Step((), 5, NOP, (1,), 0)
    with pytest.raises(MpiUsageError):
        Schedule(rank=0, n_ranks=2, n_chunks=2, steps=(s,))


def test_neighbour_enumeration():
    sched = ring_allreduce_schedule(1, 4)
    assert sched.all_incoming() == [0]
    assert sched.all_outgoing() == [2]
    assert sched.sends_to(2) == 6
    assert sched.recvs_from(0) == 6
    assert sched.sends_to(3) == 0


# -- Algorithm 1 ring ------------------------------------------------------------

def test_ring_matches_algorithm_1():
    """Direct transcription check of the paper's Algorithm 1 for rank 2, P=4."""
    P, rank = 4, 2
    sched = ring_allreduce_schedule(rank, P)
    assert sched.n_steps == 2 * (P - 1)
    assert sched.n_chunks == P
    for i, step in enumerate(sched.steps):
        assert step.incoming == ((rank - 1) % P,)
        assert step.outgoing == ((rank + 1) % P,)
        assert step.send_chunk == (rank + 2 * P - i) % P
        assert step.recv_chunk == (rank + 2 * P - i - 1) % P
        if i < P - 1:
            assert step.op is SUM
        else:
            assert step.op is NOP


def test_ring_requires_two_ranks():
    with pytest.raises(MpiUsageError):
        ring_allreduce_schedule(0, 1)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 16])
def test_ring_completion_static(p):
    assert verify_ring_completion(p)


def test_ring_send_recv_chunks_pipeline():
    """Chunk sent at step i+1 is the chunk received (and reduced) at step i."""
    sched = ring_allreduce_schedule(3, 8)
    for i in range(sched.n_steps - 1):
        assert sched.steps[i + 1].send_chunk == sched.steps[i].recv_chunk


# -- binomial bcast ------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 16])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_coverage(p, root):
    if root >= p:
        pytest.skip("root out of range")
    assert verify_bcast_coverage(p, root)


def test_bcast_all_nop():
    for r in range(8):
        sched = binomial_bcast_schedule(r, 8)
        assert all(s.op is NOP for s in sched.steps)
        assert sched.n_chunks == 1


def test_bcast_root_never_receives():
    sched = binomial_bcast_schedule(0, 8, root=0)
    assert sched.all_incoming() == []
    assert len(sched.all_outgoing()) == 3  # log2(8) children


def test_bcast_leaf_never_sends():
    sched = binomial_bcast_schedule(7, 8, root=0)
    assert sched.all_outgoing() == []
    assert len(sched.all_incoming()) == 1


# -- property-based ---------------------------------------------------------------

@given(p=st.integers(min_value=2, max_value=24))
@settings(max_examples=30, deadline=None)
def test_property_ring_completion_any_p(p):
    assert verify_ring_completion(p)


@given(p=st.integers(min_value=1, max_value=32), root_frac=st.floats(0, 0.999))
@settings(max_examples=50, deadline=None)
def test_property_bcast_coverage_any_root(p, root_frac):
    root = int(root_frac * p)
    assert verify_bcast_coverage(p, root)


@given(p=st.integers(min_value=2, max_value=16), rank_frac=st.floats(0, 0.999))
@settings(max_examples=50, deadline=None)
def test_property_ring_schedules_globally_consistent(p, rank_frac):
    """If rank r sends chunk c to rank o at step i, then o expects to
    receive chunk c from r at step i (A of o == R of r)."""
    r = int(rank_frac * p)
    mine = ring_allreduce_schedule(r, p)
    succ = ring_allreduce_schedule((r + 1) % p, p)
    for i in range(mine.n_steps):
        assert mine.steps[i].send_chunk == succ.steps[i].recv_chunk
        assert succ.steps[i].incoming == (r,)
