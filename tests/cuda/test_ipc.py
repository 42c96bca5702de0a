"""CUDA IPC: handle export/open rules."""

import numpy as np
import pytest

from repro.cuda.ipc import IpcError, IpcMemHandle
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import PAPER_TESTBED as SPEC


def _dev(gpu, n=8):
    return Buffer.alloc(n, space=MemSpace.DEVICE, node=SPEC.node_of(gpu), gpu=gpu)


def test_handle_requires_device_memory():
    with pytest.raises(IpcError):
        IpcMemHandle(Buffer.alloc(8, space=MemSpace.HOST, node=0))
    with pytest.raises(IpcError):
        IpcMemHandle(Buffer.alloc(8, space=MemSpace.PINNED, node=0))


def test_open_same_node_shares_memory():
    buf = _dev(0)
    mapped = IpcMemHandle(buf).open(SPEC, opener_gpu=2)
    mapped.data[:] = 4.0
    assert np.all(buf.data == 4.0)
    assert mapped.same_allocation(buf)


def test_mapped_view_keeps_owner_location():
    """Accesses through the mapped pointer route to the owner GPU."""
    buf = _dev(1)
    mapped = IpcMemHandle(buf).open(SPEC, opener_gpu=3)
    assert mapped.gpu == 1
    assert mapped.node == 0


def test_open_across_nodes_rejected():
    buf = _dev(0)
    with pytest.raises(IpcError, match="different nodes"):
        IpcMemHandle(buf).open(SPEC, opener_gpu=4)


def test_owner_gpu_property():
    assert IpcMemHandle(_dev(3)).owner_gpu == 3
