"""Closing a World withdraws the getters its AM dispatch loops park.

While a World is open each rank's five AM loops (one p2p, four
partitioned) wait on the worker's AM channel.  ``World.close()`` stops
them and takes their getters back, so nothing is left parked (an
embedded World's close does the same: see ``test_world_lifecycle``).
"""

from repro.hw.params import ONE_NODE
from repro.mpi.world import World


def _barrier_main(ctx):
    yield from ctx.comm.barrier()
    return ctx.mpi


def test_close_withdraws_every_parked_am_getter():
    world = World(ONE_NODE)
    runtimes = world.run(_barrier_main, nprocs=4)
    assert [rt.worker.am.unmatched() for rt in runtimes] == [(0, 5)] * 4
    world.close()
    assert [rt.worker.am.unmatched() for rt in runtimes] == [(0, 0)] * 4
    assert not any(loop.is_alive for rt in runtimes for loop in rt.progress._procs)

