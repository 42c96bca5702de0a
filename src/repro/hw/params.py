"""Calibration constants for the GH200 testbed (paper Section V).

:class:`GH200Params` is the one table of model constants (links, memory,
software costs, CUDA API costs, the SM wave model); every layer reads its
machine's as ``spec.params``.  Defaults are calibrated so the
paper's reported *ratios* re-emerge; absolute values are in the right
order of magnitude for a GH200 node but are not claimed to be exact.

Sources for the defaults:

* NVLink 4: 6 links per GPU pair -> 150 GB/s unidirectional per neighbour.
* NVLink-C2C: 900 GB/s total, 450 GB/s per direction.
* ConnectX-7: 400 Gbit/s -> 50 GB/s; ~3.5 us end-to-end small-message latency
  (typical RC verbs put latency across one switch).
* HBM3: 96 GB at ~3.35 TB/s (H100-class device bandwidth, derated to a
  realistic achievable STREAM-like fraction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import GBps, Gbps, us, ns


@dataclass(frozen=True)
class GH200Params:
    """Every model constant of one machine: GPUs, links and software."""

    # --- intra-node GPU<->GPU (NVLink 4, 6 links/pair) ---
    nvlink_bw: float = 150 * GBps          # unidirectional, per GPU pair
    nvlink_latency: float = 2.7 * us       # first-byte latency GPU->GPU (IPC put)

    # --- CPU<->GPU within a superchip (NVLink-C2C) ---
    c2c_bw: float = 450 * GBps             # per direction
    c2c_latency: float = 0.6 * us          # host<->device first-byte latency

    # --- inter-node (ConnectX-7 InfiniBand NDR) ---
    ib_bw: float = 400 * Gbps              # 50 GB/s per NIC
    ib_latency: float = 3.5 * us           # one-way put latency via one switch
    ib_rndv_handshake: float = 2.0 * us    # rendezvous RTS/CTS extra cost

    # --- device memory ---
    hbm_bw: float = 3000 * GBps            # HBM self-copy link bandwidth
    host_mem_bw: float = 400 * GBps        # LPDDR5X achievable

    # --- CUDA host API costs ---
    launch_latency: float = 0.95 * us      # kernel launch -> first wave starts
    launch_api_cost: float = 0.4 * us      # host-side cost of the async launch call
    stream_sync_cost: float = 7.8 * us     # cudaStreamSynchronize fixed cost (Fig 2)
    memcpy_api_cost: float = 1.2 * us      # cudaMemcpyAsync host-side cost
    cuda_malloc_cost: float = 60.0 * us    # cudaMalloc (driver allocation)
    cuda_host_alloc_cost: float = 25.0 * us  # cudaMallocHost (pin pages)

    # --- SM geometry and the wave model (H100-class, repro.cuda.timing) ---
    sm_count: int = 132
    max_threads_per_sm: int = 2048
    max_blocks_per_sm: int = 32
    max_block_threads: int = 1024
    block_floor: float = 1.15 * us         # min wave latency (issue + drain)
    sm_hbm_bw: float = 3500 * GBps         # HBM bandwidth a kernel wave shares
    flop_rate: float = 20e12               # achievable FP64-ish rate (flops/s)
    syncthreads_cost: float = 0.02 * us

    # --- fine-grained signalling costs ---
    # A single device-thread store into pinned *host* memory (over C2C,
    # uncoalesced, fenced). Calibrated with flag_write_base so Fig 3's
    # 271.5x (1024 writes vs 1) and 9.4x (32 vs 1) ratios emerge.
    flag_write_host: float = 0.46 * us
    flag_write_base: float = 1.24 * us     # fixed cost of the signalling path
    # A device-thread store to its *own* GPU global memory (atomics etc.).
    gmem_atomic: float = 12 * ns
    # Host store observed by device (progress flags H2D visibility).
    host_to_dev_flag: float = 0.9 * us

    # --- progression engine ---
    # Delay between a flag being written and the polling progression thread
    # observing it (average poll interval / 2 + pipeline cost).
    progress_poll_latency: float = 0.9 * us
    # CPU cost for the progression engine to handle one pready dispatch.
    progress_dispatch_cost: float = 0.5 * us

    # --- software/protocol constants (UCX-level, host CPU work) ---
    ucp_context_create: float = 6.0 * us
    ucp_worker_create: float = 4.0 * us
    ucp_ep_create: float = 2.5 * us
    ucp_mem_map_per_call: float = 18.0 * us     # registration (pin + MR)
    ucp_rkey_pack: float = 1.5 * us
    ucp_rkey_unpack: float = 2.0 * us
    ucp_rkey_ptr: float = 9.0 * us              # cuIpcOpenMemHandle path
    # ucp_put_nbx on the cuda_ipc transport is a *host-mediated* async
    # device copy (cuMemcpyDtoDAsync + completion tracking), so every
    # host-issued intra-node device-to-device put pays this on top of the
    # wire time.  The Kernel-Copy path's direct stores avoid it — a key
    # part of why KC wins intra-node (Fig 4).
    cuda_ipc_put_overhead: float = 4.5 * us
    # Intra-kernel remote stores must be fenced (__threadfence_system) and
    # made peer-visible before the copying threads may raise counters;
    # charged once per kernel-copy transport partition.
    kc_fence_overhead: float = 1.3 * us
    am_send_overhead: float = 1.2 * us          # active-message injection
    mca_module_init: float = 140.0 * us         # first-touch MCA component init

    # --- MPI software layer ---
    mpi_call_overhead: float = 0.4 * us         # per-call bookkeeping
    mpi_match_cost: float = 0.3 * us            # tag-matching on the receiver
    eager_threshold_bytes: int = 8192           # eager/rendezvous switch (host bufs)
    cpu_reduce_bw: float = 30 * GBps            # host-side reduction throughput
    # Traditional MPI_Allreduce on *device* buffers stages through small
    # host bounce buffers with blocking per-chunk copies (the production
    # Open MPI behaviour the paper benchmarks against in Fig 6/7/10/11).
    allreduce_bounce_bytes: int = 64 * 1024
    allreduce_bounce_penalty: float = 11.0 * us  # memcpy pair + sync per chunk

    def __post_init__(self) -> None:
        # The wave model divides by both: fail as a spec problem, not at launch.
        from repro.hw.spec.schema import SpecError  # schema imports this module

        if not self.sm_count >= 1:
            raise SpecError(f"GH200Params: sm_count must be >= 1, got {self.sm_count!r}")
        if not self.sm_hbm_bw > 0:
            raise SpecError(f"GH200Params: sm_hbm_bw must be positive, got {self.sm_hbm_bw!r}")

    def with_overrides(self, **kw) -> "GH200Params":
        """Return a copy with selected constants replaced (ablations)."""
        return replace(self, **kw)


# The paper's machines are catalog specs; imported after GH200Params
# because the catalog builds its specs from it.
from repro.hw.spec.catalog import SPECS  # noqa: E402

#: The testbed of the paper: two nodes, four GH200 superchips each.
PAPER_TESTBED = SPECS["gh200-2x4"]

#: Single-node variant used by the intra-node experiments.
ONE_NODE = SPECS["gh200-1x4"]
