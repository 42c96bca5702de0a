"""CUDA-like GPU simulator.

Models the pieces of the CUDA execution model that the paper's results
hinge on:

* asynchronous kernel launches into FIFO **streams** and the fixed cost of
  ``cudaStreamSynchronize`` (the paper's Fig 2 motivation);
* the **grid/block/warp/thread** hierarchy with an SM wave scheduler and an
  HBM-bandwidth-bound block cost model, whose constants (like every GPU
  constant) are fields of the machine's :class:`~repro.hw.params.GH200Params`;
* **device-side actions**: computing, writing flags into pinned host memory
  (serialized over NVLink-C2C), global-memory atomics, ``__syncthreads()``,
  and intra-kernel load/store copies over NVLink — everything the paper's
  ``MPIX_Pready`` device bindings are built from;
* **CUDA IPC** memory handles used by the Kernel-Copy path.

Two kernel flavours trade fidelity against simulation cost (documented in
DESIGN.md): :class:`~repro.cuda.kernel.BlockKernel` runs one coroutine per
block (exact; for small grids and semantics tests), while
:class:`~repro.cuda.kernel.UniformKernel` uses an analytic wave plan with a
per-wave bulk hook (for the paper's 128K-block sweeps).
"""

from repro.cuda.timing import WorkSpec
from repro.cuda.kernel import BlockKernel, UniformKernel, Wave
from repro.cuda.stream import Stream
from repro.cuda.device import Device
from repro.cuda.ipc import IpcMemHandle

__all__ = [
    "BlockKernel",
    "Device",
    "IpcMemHandle",
    "Stream",
    "UniformKernel",
    "Wave",
    "WorkSpec",
]
