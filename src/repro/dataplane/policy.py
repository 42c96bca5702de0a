"""Path policies: how a validated descriptor becomes wire transfers.

A policy turns one :class:`~repro.dataplane.descriptor.TransferDescriptor`
plus its primary route into a list of :class:`Stripe` plans; the
:class:`~repro.dataplane.plane.Dataplane` starts one link transfer per
stripe and completes the submission at the max of the stripe arrivals.

The contract every policy must honour (DESIGN.md §12):

* **determinism** — the plan is a pure function of the descriptor, the
  link graph, and the policy's own constants (no wall-clock, no RNG);
* **payload integrity** — the union of payload stripes covers the
  destination exactly once (each stripe copies its own element range at
  its own arrival instant);
* **single-stripe transparency** — a one-stripe plan must execute exactly
  like the pre-dataplane ``start_transfer`` call (same transfer name, same
  link acquisitions), which is how :class:`SinglePathPolicy` keeps pinned
  step hashes and sanitizer digests byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.descriptor import TransferDescriptor
    from repro.dataplane.plane import Dataplane
    from repro.hw.links import Link


@dataclass
class Stripe:
    """One planned wire transfer: a route, its bytes, its arrival action."""

    route: Tuple["Link", ...]
    nbytes: int
    on_wire_done: Optional[Callable[[], None]] = None


def _whole_payload_cb(desc: "TransferDescriptor") -> Optional[Callable[[], None]]:
    if not desc.payload:
        return None
    src, dst = desc.src, desc.dst
    return lambda: dst.copy_from(src)


class PathPolicy:
    """Base class; subclasses override :meth:`plan`."""

    name = "abstract"

    def plan(
        self,
        dp: "Dataplane",
        desc: "TransferDescriptor",
        primary: Tuple["Link", ...],
    ) -> List[Stripe]:
        raise NotImplementedError


class SinglePathPolicy(PathPolicy):
    """Today's behaviour: the whole transfer rides the fewest-links route."""

    name = "single"

    def plan(self, dp, desc, primary) -> List[Stripe]:
        return [Stripe(primary, desc.wire_bytes, _whole_payload_cb(desc))]


class MultiPathPolicy(PathPolicy):
    """Stripe large transfers across link-disjoint routes.

    Route discovery walks the link graph repeatedly, excluding every link
    already claimed by a chosen route, so stripes never queue behind each
    other on a shared port (Sojoodi et al.: parallel NVLink paths
    intra-node; dual IB rails inter-node).  Chunk sizes are proportional
    to each route's bottleneck bandwidth — all stripes finish serializing
    at roughly the same instant — with a deterministic largest-remainder
    split at element granularity for payload and byte granularity for
    control traffic.  Transfers below ``min_stripe_bytes`` (or with a
    single usable route) fall back to the single-path plan untouched.
    """

    name = "multi"

    def __init__(self, min_stripe_bytes: int = 4 * MiB, max_stripes: int = 4) -> None:
        if min_stripe_bytes < 2:
            raise ValueError("min_stripe_bytes must be >= 2")
        if max_stripes < 2:
            raise ValueError("max_stripes must be >= 2")
        self.min_stripe_bytes = min_stripe_bytes
        self.max_stripes = max_stripes

    def plan(self, dp, desc, primary) -> List[Stripe]:
        single = [Stripe(primary, desc.wire_bytes, _whole_payload_cb(desc))]
        if desc.wire_bytes < self.min_stripe_bytes:
            return single
        routes = dp.fabric.disjoint_routes(desc.src, desc.dst, self.max_stripes)
        if len(routes) < 2:
            return single
        weights = [min(link.bandwidth for link in route) for route in routes]
        if desc.payload:
            total = desc.splittable_elems()
            if total < len(routes):
                return single
            shares = _largest_remainder(total, weights)
            return self._payload_stripes(desc, routes, shares)
        shares = _largest_remainder(desc.wire_bytes, weights)
        return [
            Stripe(route, nbytes, None)
            for route, nbytes in zip(routes, shares)
            if nbytes > 0
        ]

    @staticmethod
    def _payload_stripes(desc, routes, shares) -> List[Stripe]:
        stripes: List[Stripe] = []
        offset = 0
        for route, count in zip(routes, shares):
            if count == 0:
                continue
            src_view = desc.src.view(offset, count)
            dst_view = desc.dst.view(offset, count)
            stripes.append(Stripe(
                route,
                count * desc.src.itemsize,
                lambda s=src_view, d=dst_view: d.copy_from(s),
            ))
            offset += count
        return stripes


class CongestionAwarePolicy(PathPolicy):
    """Pick the least-loaded of the link-disjoint candidate routes.

    Scores each candidate by its estimated completion: the worst per-link
    drain time ``(outstanding_bytes + wire_bytes) / bandwidth`` plus the
    route's fixed costs (max overhead + total latency).  The congestion
    signal is the link transfer's outstanding-bytes counter — pure
    simulated state sampled at submit time — and ties break by candidate
    order (primary first), so the choice is fully deterministic.
    Successive submissions between one endpoint pair spread across the
    candidate routes because each pick raises its own route's load.

    Unlike :class:`MultiPathPolicy` the transfer is not split: one stripe
    rides the winning route, so small transfers also benefit and payload
    geometry is untouched.
    """

    name = "congestion"

    def __init__(self, max_candidates: int = 4) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.max_candidates = max_candidates

    def plan(self, dp, desc, primary) -> List[Stripe]:
        routes = dp.fabric.disjoint_routes(desc.src, desc.dst, self.max_candidates)
        best = None
        best_cost = math.inf
        for route in routes:
            if any(not link.up for link in route):
                continue
            drain = max(
                (link.outstanding_bytes + desc.wire_bytes) / link.bandwidth
                for link in route
            )
            cost = (
                drain
                + max(link.overhead for link in route)
                + sum(link.latency for link in route)
            )
            if cost < best_cost:  # strict: earlier candidate wins ties
                best = route
                best_cost = cost
        if best is None:
            # Every candidate crosses a downed link; hand back the primary
            # and let the guarded execution path re-route or fault it.
            best = primary
        return [Stripe(best, desc.wire_bytes, _whole_payload_cb(desc))]


def _largest_remainder(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Floors every share, then hands the leftover units out one each in
    route order — fully deterministic, sums exactly to ``total``.
    """
    denom = sum(weights)
    shares = [math.floor(total * w / denom) for w in weights]
    leftover = total - sum(shares)
    for i in range(leftover):
        shares[i % len(shares)] += 1
    return shares


def policy_by_name(name: Optional[str]) -> PathPolicy:
    """A fresh policy instance for ``name`` (None -> single-path)."""
    for cls in (SinglePathPolicy, MultiPathPolicy, CongestionAwarePolicy):
        if cls.name == (name or "single"):
            return cls()
    raise ValueError(
        f"unknown path policy {name!r} (single|multi|congestion)"
    )
