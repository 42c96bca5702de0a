"""Declarative hardware layer: machine specs, typed link graph, routing.

Describe a machine (:class:`MachineSpec`) instead of hard-coding it: node
templates with GPUs, typed link classes, pair-mesh / switch / host-staged
interconnects, NIC placement.  Each fabric's :class:`LinkGraph` views the
spec's once-compiled link wiring; :class:`~repro.hw.topology.Fabric`
resolves and memoizes routes over it.  The GH200 testbed of the paper is
just the canonical catalog entry (:func:`gh200_spec`).
"""

from repro.hw.spec.catalog import (
    SPECS,
    dgx_nvswitch_spec,
    gh200_node,
    gh200_spec,
    named_spec,
    pcie_nop2p_spec,
)
from repro.hw.spec.graph import LinkGraph, RouteSearchError
from repro.hw.spec.schema import (
    Interconnect,
    LinkClass,
    MachineSpec,
    NodeSpec,
    SpecError,
)

__all__ = [
    "Interconnect",
    "LinkClass",
    "LinkGraph",
    "MachineSpec",
    "NodeSpec",
    "RouteSearchError",
    "SPECS",
    "SpecError",
    "dgx_nvswitch_spec",
    "gh200_node",
    "gh200_spec",
    "named_spec",
    "pcie_nop2p_spec",
]
