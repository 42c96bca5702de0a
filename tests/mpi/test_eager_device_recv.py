"""The eager receive into device memory.

An eager payload that lands in a device buffer is staged: the progress
engine copies it host-to-device through the dataplane (traffic class
``eager``) before it completes the receive.  This is the host-staged
CUDA-aware p2p path behind the paper's "traditional" baseline rows.
"""

import numpy as np
import pytest

from repro.hw.params import ONE_NODE
from repro.hw.spec.catalog import SPECS
from repro.mpi.world import World

N = 8  # float64 elements: 64 bytes, below the eager threshold


def _main(ctx):
    comm = ctx.comm
    if ctx.rank == 0:
        yield from comm.send(ctx.gpu.alloc_pinned(N, fill=7.0), dest=1, tag=3)
        return None
    rbuf = ctx.gpu.alloc(N)
    st = yield from comm.recv(rbuf, source=0, tag=3)
    return st["protocol"], rbuf.data.copy()


@pytest.mark.parametrize("spec", [ONE_NODE, SPECS["gh200-2x1"]],
                         ids=["one-node", "gh200-2x1"])
def test_eager_recv_into_device_buffer_is_staged(spec):
    world = World(spec)
    _, (protocol, data) = world.run(_main, nprocs=2)
    assert protocol == "eager"
    assert np.all(data == 7.0)
    eager = world.fabric.dataplane.ledger["eager"]
    assert (eager.bytes, eager.transfers) == (N * 8, 1)
