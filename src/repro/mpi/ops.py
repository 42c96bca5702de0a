"""MPI reduction operations mapped onto NumPy ufuncs.

``MpiOp.reduce_into(acc, operand)`` performs the *numerical* reduction
in place; the caller charges the simulated time (CPU reduction bandwidth
for host-staged collectives, a reduction-kernel launch for device-side
collectives — the cost asymmetry the paper's Section VI-B discusses).

``NOP`` is the schedule placeholder used by Partitioned Collective steps
that only move data (paper Algorithm 1, lines 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mpi.errors import MpiUsageError


@dataclass(frozen=True)
class MpiOp:
    """A named, commutative reduction operation."""

    name: str
    ufunc: Callable  # numpy ufunc with .at/out semantics

    def reduce_into(self, acc: np.ndarray, operand: np.ndarray) -> None:
        """acc = acc (op) operand, in place, no allocation."""
        if acc.shape != operand.shape:
            raise ValueError(f"reduce shape mismatch: {acc.shape} vs {operand.shape}")
        self.ufunc(acc, operand, out=acc)

    def check(self, call: str, dtype) -> None:
        """Raise :class:`MpiUsageError` if ``reduce_into`` has no loop for ``dtype``."""
        probe = np.empty(0, dtype)
        try:
            self.ufunc(probe, probe, out=probe)
        except TypeError:
            raise MpiUsageError(f"{call}: {self!r} is not defined on {probe.dtype}") from None

    def __repr__(self) -> str:
        return f"MPI_{self.name}"


class _Nop:
    """The no-operation marker for data-movement-only schedule steps."""

    name = "NOP"

    def reduce_into(self, acc, operand) -> None:  # pragma: no cover - guarded by callers
        raise RuntimeError("NOP must not reduce; schedule steps should skip it")

    def __repr__(self) -> str:
        return "NOP"


SUM = MpiOp("SUM", np.add)
PROD = MpiOp("PROD", np.multiply)
MAX = MpiOp("MAX", np.maximum)
MIN = MpiOp("MIN", np.minimum)
LAND = MpiOp("LAND", np.logical_and)
LOR = MpiOp("LOR", np.logical_or)
BAND = MpiOp("BAND", np.bitwise_and)
BOR = MpiOp("BOR", np.bitwise_or)
NOP = _Nop()
