"""Partition aggregation: mapping GPU work onto transport partitions.

Terminology (paper Section IV-B preamble): a **user partition** is what the
application addresses (here: one per CUDA thread in the GPU benchmarks, per
Listing 2's ``MPIX_Pready(idx, preq)``); a **transport partition** is what
the wire protocol tracks (one RMA put + one arrived flag each).

:class:`AggregationSpec` fixes, for a kernel of ``grid x block_threads``:

* ``blocks_per_partition`` — how many blocks' data aggregate into one
  transport partition (the paper found 1 best intra-node, 2 best
  inter-node for large kernels — Section VI-A);
* ``signal_mode`` — which actor writes the host-visible ready signal:
  every **thread**, each warp's leader (**warp**), or the block's thread 0
  after ``__syncthreads()`` (**block**).  Multi-block aggregation always
  uses global-memory counters so exactly one host write per transport
  partition crossing occurs in block mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.mpi.errors import MpiUsageError

#: Threads per warp (the warp-mode signalling granularity).
WARP_SIZE = 32


class SignalMode(enum.Enum):
    """Granularity of device -> host ready signalling (Fig 3)."""

    THREAD = "thread"
    WARP = "warp"
    BLOCK = "block"


@dataclass(frozen=True)
class AggregationSpec:
    """Static mapping of a kernel's blocks onto transport partitions."""

    grid: int
    block_threads: int
    blocks_per_partition: int = 1
    signal_mode: SignalMode = SignalMode.BLOCK

    def __post_init__(self) -> None:
        if self.grid < 1 or self.block_threads < 1:
            raise MpiUsageError("grid and block_threads must be >= 1")
        if self.blocks_per_partition < 1:
            raise MpiUsageError("blocks_per_partition must be >= 1")
        if self.grid % self.blocks_per_partition != 0:
            raise MpiUsageError(
                f"grid {self.grid} does not divide into transport partitions of "
                f"{self.blocks_per_partition} blocks"
            )

    # -- shape ------------------------------------------------------------------
    @property
    def n_transport(self) -> int:
        return self.grid // self.blocks_per_partition

    @property
    def n_user(self) -> int:
        """User partitions: one per thread (Listing 2 semantics)."""
        return self.grid * self.block_threads

    @property
    def threads_per_partition(self) -> int:
        return self.blocks_per_partition * self.block_threads

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.block_threads / WARP_SIZE)

    # -- mappings ---------------------------------------------------------------
    def tp_of_block(self, block_id: int) -> int:
        if not 0 <= block_id < self.grid:
            raise MpiUsageError(f"block {block_id} out of range for grid {self.grid}")
        return block_id // self.blocks_per_partition

    def tp_of_user(self, user_partition: int) -> int:
        if not 0 <= user_partition < self.n_user:
            raise MpiUsageError(
                f"user partition {user_partition} out of range ({self.n_user})"
            )
        return user_partition // self.threads_per_partition

    def host_writes_per_block(self) -> int:
        """Host flag stores one block issues under the signal mode."""
        if self.signal_mode is SignalMode.THREAD:
            return self.block_threads
        if self.signal_mode is SignalMode.WARP:
            return self.warps_per_block
        return 1

    def expected_host_signals(self) -> int:
        """Host-side signal count that marks one transport partition ready.

        Block mode uses global-memory counters across blocks, so exactly
        one host write lands per transport partition regardless of
        ``blocks_per_partition``; thread/warp modes write per actor.
        """
        if self.signal_mode is SignalMode.BLOCK:
            return 1
        per_block = self.host_writes_per_block()
        return per_block * self.blocks_per_partition

    def gmem_threshold(self) -> int:
        """Global-memory counter crossing that triggers the host write."""
        return self.blocks_per_partition
