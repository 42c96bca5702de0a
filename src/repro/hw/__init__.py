"""Hardware models: machine specs, topology, links, memory spaces, routes.

This package provides the *physical* substrate under the GPU and network
simulators: where buffers live, which links connect which components, and
how long a byte-stream takes to traverse a path.  Machines are described
declaratively (:mod:`repro.hw.spec`) and compiled into a routable link
graph; the paper's GH200 testbed (Section V) is the canonical catalog
entry, with its calibration constants in :mod:`repro.hw.params`.
"""

from repro.hw.params import GH200Params
from repro.hw.memory import Buffer, MemSpace
from repro.hw.links import Link
from repro.hw.spec import MachineSpec, gh200_spec, named_spec

__all__ = [
    "Buffer",
    "GH200Params",
    "Link",
    "MachineSpec",
    "MemSpace",
    "gh200_spec",
    "named_spec",
]
