"""Per-traffic-class accounting of everything the dataplane moved.

The ledger answers "which subsystem moved how many bytes, over how many
transfers and stripes, with how much estimated link occupancy".  It is
passive per-class accounting and nothing else: counters only, updated at
submit time, no engine events, no obs traffic and no link state (the
per-link congestion signal belongs to the link transfer, DESIGN.md §17),
so it can never perturb the simulated timeline.

Occupancy is the serialization estimate of the cut-through link model
(per leg ``max(overhead) + bytes / bottleneck_bw``, the unstriped leg
priced from its route at the descriptor's wire bytes), i.e. the port
time the transfer asks for, not the queueing-delayed time it gets — a
deterministic submit-time quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.descriptor import TransferDescriptor
    from repro.dataplane.policy import Plan


@dataclass
class ClassUsage:
    """Accumulated usage of one traffic class."""

    bytes: int = 0
    transfers: int = 0
    stripes: int = 0
    occupancy_s: float = 0.0


@dataclass
class Ledger:
    """Traffic-class -> usage, in first-submission order."""

    classes: Dict[str, ClassUsage] = field(default_factory=dict)

    def account(self, desc: "TransferDescriptor", plan: "Plan") -> None:
        """Count one submission of ``desc`` executed as ``plan`` (shapes:
        policy.Plan): a route is priced at ``wire_bytes``, stripes each."""
        usage = self.classes.get(desc.traffic_class)
        if usage is None:
            usage = self.classes[desc.traffic_class] = ClassUsage()
        usage.bytes += desc.wire_bytes
        usage.transfers += 1
        legs = (((plan, desc.wire_bytes),) if type(plan) is tuple
                else [(stripe.route, stripe.nbytes) for stripe in plan])
        usage.stripes += len(legs)
        for route, nbytes in legs:  # min/max in plain loops, as _Transfer prices
            bottleneck, overhead = route[0].bandwidth, route[0].overhead
            for link in route:
                if link.bandwidth < bottleneck:
                    bottleneck = link.bandwidth
                if link.overhead > overhead:
                    overhead = link.overhead
            usage.occupancy_s += overhead + nbytes / bottleneck

    def __getitem__(self, traffic_class: str) -> ClassUsage:
        return self.classes.get(traffic_class, ClassUsage())

    def total_bytes(self) -> int:
        return sum(u.bytes for u in self.classes.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready snapshot (bench output, BENCH_pr5.json)."""
        return {
            name: {
                "bytes": u.bytes,
                "transfers": u.transfers,
                "stripes": u.stripes,
                "occupancy_s": round(u.occupancy_s, 9),
            }
            for name, u in self.classes.items()
        }
