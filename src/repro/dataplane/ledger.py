"""Per-traffic-class accounting of everything the dataplane moved.

The ledger answers "which subsystem moved how many bytes, over how many
transfers and stripes, with how much estimated link occupancy" — the
cross-cutting accounting that was impossible while every producer drove
the links directly.  It is deliberately passive: counters only, updated
at submit time, no engine events and no obs traffic, so an attached
ledger can never perturb the simulated timeline.

Occupancy is the serialization estimate of the cut-through link model
(per-stripe ``max(overhead) + bytes / bottleneck_bw``), i.e. the port
time the transfer asks for, not the queueing-delayed time it gets — a
deterministic submit-time quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.descriptor import TransferDescriptor
    from repro.dataplane.policy import Stripe


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

    def account(self, desc: "TransferDescriptor", stripes: List["Stripe"]) -> None:
        usage = self.classes.get(desc.traffic_class)
        if usage is None:
            usage = self.classes[desc.traffic_class] = ClassUsage()
        usage.bytes += desc.wire_bytes
        usage.transfers += 1
        usage.stripes += len(stripes)
        for stripe in stripes:
            route = stripe.route  # min/max in plain loops, as _Transfer prices
            bottleneck, overhead = route[0].bandwidth, route[0].overhead
            for link in route:
                if link.bandwidth < bottleneck:
                    bottleneck = link.bandwidth
                if link.overhead > overhead:
                    overhead = link.overhead
            usage.occupancy_s += overhead + stripe.nbytes / bottleneck

    # -- congestion signal -------------------------------------------------
    # Outstanding-bytes per link: charged at stripe launch, discharged at
    # stripe completion (or abort), both inside existing event pops — no
    # heap traffic, pure arithmetic, so the signal is deterministic and
    # free on unobserved runs.  CongestionAwarePolicy reads it at submit
    # time to score candidate routes (DESIGN.md §17).

    @staticmethod
    def charge_links(route, nbytes: int) -> None:
        for link in route:
            link.outstanding_bytes += nbytes

    @staticmethod
    def discharge_links(route, nbytes: int) -> None:
        for link in route:
            link.outstanding_bytes -= nbytes

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
