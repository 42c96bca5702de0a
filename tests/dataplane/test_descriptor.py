"""Descriptor validation: byte-true size checks, dtype and virtual cases."""

import numpy as np
import pytest

from repro.dataplane import DescriptorError, TransferDescriptor
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.topology import Fabric
from repro.sim.engine import Engine


def dev(gpu, n=8, dtype=np.float64, virtual=False):
    alloc = Buffer.alloc_virtual if virtual else Buffer.alloc
    return alloc(n, dtype=dtype, space=MemSpace.DEVICE, node=0, gpu=gpu)


def test_matching_payload_validates():
    d = TransferDescriptor(dev(0), dev(1)).validate()
    assert d.wire_bytes == 8 * 8
    assert d.splittable_elems() == 8


def test_dtype_mismatch_same_count_flagged():
    # The seed's element-count check passed this silently: 8 x f64 (64 B)
    # into 8 x f32 (32 B) truncates half the payload on real hardware.
    with pytest.raises(DescriptorError, match="size mismatch"):
        TransferDescriptor(dev(0), dev(1, dtype=np.float32)).validate()


def test_dtype_mismatch_same_bytes_flagged():
    # Equal wire bytes but different element geometry: 8 x f32 cannot
    # land element-for-element in 4 x f64.
    with pytest.raises(DescriptorError, match="dtype mismatch"):
        TransferDescriptor(dev(0, dtype=np.float32), dev(1, n=4)).validate()


def test_virtual_dst_same_bytes_different_dtype_ok():
    # A virtual destination never materializes the copy, so only the
    # wire size must agree (registration-size semantics).
    d = TransferDescriptor(dev(0, dtype=np.float32), dev(1, n=4, virtual=True))
    assert d.validate().wire_bytes == 32
    assert d.splittable_elems() == 0  # geometry differs -> unsplittable


def test_virtual_src_and_dst_validate():
    d = TransferDescriptor(dev(0, virtual=True), dev(1, virtual=True)).validate()
    assert d.wire_bytes == 64
    assert d.splittable_elems() == 8


def test_virtual_size_mismatch_flagged():
    # nbytes reports shape-true size even at zero stride; a short virtual
    # destination is still a wire-size error.
    with pytest.raises(DescriptorError, match="size mismatch"):
        TransferDescriptor(dev(0), dev(1, n=4, virtual=True)).validate()


def test_negative_control_bytes_flagged():
    with pytest.raises(DescriptorError, match="negative"):
        TransferDescriptor(dev(0), dev(1), nbytes=-1, payload=False).validate()


def test_bad_initiator_flagged():
    with pytest.raises(DescriptorError, match="initiator"):
        TransferDescriptor(dev(0), dev(1), initiator="dma").validate()


def test_fabric_shim_raises_descriptor_error():
    """Submitting through a fabric's dataplane reports the byte-true check
    (DescriptorError is a ValueError, preserving the old contract)."""
    fab = Fabric(Engine(), ONE_NODE)
    with pytest.raises(ValueError, match="size mismatch"):
        fab.dataplane.put(dev(0), dev(1, dtype=np.float32))
