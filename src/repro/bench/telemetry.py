"""Link-level telemetry: what actually moved over the simulated fabric.

Every :class:`~repro.hw.links.Link` counts bytes and transfers; this
module aggregates those counters per link class so tests can assert
*conservation* properties (e.g. a partitioned send moves exactly the
payload over NVLink, the Kernel-Copy path moves zero bytes through the
copy-engine path) and benchmarks can report utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hw.topology import Fabric


@dataclass
class LinkStats:
    bytes: int = 0
    transfers: int = 0


@dataclass
class FabricSnapshot:
    """Aggregate per-class byte/transfer counters at one instant."""

    classes: Dict[str, LinkStats] = field(default_factory=dict)

    def delta(self, later: "FabricSnapshot") -> "FabricSnapshot":
        """Per-class difference ``later - self`` over the union of classes.

        Classes present only in ``self`` (e.g. snapshots taken on different
        machines) show up with negative deltas instead of silently
        vanishing; order is ``later``'s, then leftovers of ``self``.
        """
        out = FabricSnapshot()
        names = list(later.classes)
        names += [n for n in self.classes if n not in later.classes]
        for name in names:
            before = self.classes.get(name, LinkStats())
            after = later.classes.get(name, LinkStats())
            out.classes[name] = LinkStats(
                bytes=after.bytes - before.bytes,
                transfers=after.transfers - before.transfers,
            )
        return out

    def __getitem__(self, name: str) -> LinkStats:
        return self.classes.get(name, LinkStats())


def snapshot(fabric: Fabric) -> FabricSnapshot:
    """Aggregate all link counters by the link's ``kind`` attribute.

    The classes are whatever the machine spec declares (``"nvlink"`` on a
    GH200, ``"switch"`` on a DGX, ``"pcie_d2h"`` on a no-P2P box) — no
    hard-coded class list, so telemetry works on any spec.
    """
    snap = FabricSnapshot({k: LinkStats() for k in fabric.link_kinds()})
    for link in fabric.iter_links():
        st = snap.classes[link.kind]
        st.bytes += link.bytes_carried
        st.transfers += link.n_transfers
    return snap


def report(fabric: Fabric) -> str:
    """Human-readable per-class utilization summary."""
    from repro.units import fmt_bytes

    snap = snapshot(fabric)
    lines = ["link class   bytes        transfers"]
    for name, st in snap.classes.items():
        lines.append(f"{name:<12} {fmt_bytes(st.bytes):<12} {st.transfers}")
    return "\n".join(lines)
