"""The Fig 6/7 allreduce result check: exact, on every element, and not an
``assert`` (it must survive ``python -O``)."""

import pytest

from repro.bench.coll import measure_allreduce
from repro.hw.params import ONE_NODE
from repro.mpi.errors import MpiError
from repro.mpi.ops import MpiOp

VARIANTS = ["traditional", "partitioned", "nccl"]

#: Grid-8, 4-rank windows on ONE_NODE; the check must not move simulated time.
HEALTHY = {
    "traditional": 0.00013237831111111116,
    "partitioned": 0.0004567751918333351,
    "nccl": 2.996740190476196e-05,
}

_reduce_into = MpiOp.reduce_into


def _skip(op, acc, operand):
    pass


def _nan_first(op, acc, operand):
    _reduce_into(op, acc, operand)
    acc[0] = float("nan")


def _off_by_one_last(op, acc, operand):
    """Reduce correctly, then bump the payload's last element only: the
    reduced range is a view, so touch it only where it ends its array."""
    _reduce_into(op, acc, operand)
    whole = acc if acc.base is None else acc.base
    if acc.ctypes.data + acc.nbytes == whole.ctypes.data + whole.nbytes:
        acc[-1] += 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_healthy_run_keeps_its_window(variant):
    assert measure_allreduce(8, variant, ONE_NODE, 4) == HEALTHY[variant]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fault", [_skip, _nan_first, _off_by_one_last],
                         ids=["no-reduce", "one-nan", "last-element-off"])
def test_wrong_result_raises(monkeypatch, variant, fault):
    monkeypatch.setattr(MpiOp, "reduce_into", fault)
    with pytest.raises(MpiError, match="allreduce wrong"):
        measure_allreduce(8, variant, ONE_NODE, 4)
