"""Path policies: how a validated descriptor becomes wire transfers.

A policy turns one :class:`~repro.dataplane.descriptor.TransferDescriptor`
plus its primary route into a *plan* of one of two shapes:

* a **route** (a tuple of links) when it does not split the descriptor:
  the :class:`~repro.dataplane.plane.Dataplane` starts the descriptor's
  one link transfer straight from it, carrying ``wire_bytes`` and (for
  payload descriptors) the whole-buffer copy;
* a **list of two or more** :class:`Stripe` legs when it does: one link
  transfer per stripe, completing at the max of the stripe arrivals.

The contract every policy must honour (DESIGN.md §12):

* **determinism** — the plan is a pure function of the descriptor, the
  link graph, and the policy's own constants (no wall-clock, no RNG);
* **payload integrity** — the union of payload stripes covers the
  destination exactly once (each stripe copies its own element range at
  its own arrival instant);
* **unstriped transparency** — a policy that does not split hands back
  a route, never a one-stripe list, and the unstriped leg executes
  exactly like a bare ``start_transfer`` call (same transfer name, same
  link acquisitions), which is how :class:`SinglePathPolicy` keeps pinned
  step hashes and sanitizer digests byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.descriptor import TransferDescriptor
    from repro.dataplane.plane import Dataplane
    from repro.hw.links import Link


#: A policy's plan: the unstriped leg's route (a tuple of links) or a list
#: of two or more stripes, never one (``Dataplane._execute`` raises on it).
#: ``type(plan) is tuple`` tells the two shapes apart wherever a plan is read.
Plan = Union[Tuple["Link", ...], List["Stripe"]]


@dataclass
class Stripe:
    """One leg of a multi-leg plan: a route, its bytes, its arrival action."""

    route: Tuple["Link", ...]
    nbytes: int
    on_wire_done: Optional[Callable[[], None]] = None


class PathPolicy:
    """Base class; subclasses override :meth:`plan`."""

    name = "abstract"

    def plan(
        self,
        dp: "Dataplane",
        desc: "TransferDescriptor",
        primary: Tuple["Link", ...],
    ) -> Plan:
        raise NotImplementedError


class SinglePathPolicy(PathPolicy):
    """Today's behaviour: the whole transfer rides the fewest-links route."""

    name = "single"

    def plan(self, dp, desc, primary) -> Plan:
        return primary


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
    single usable route) stay unstriped on the primary route.
    """

    name = "multi"
    min_stripe_bytes = 4 * MiB
    max_stripes = 4

    def plan(self, dp, desc, primary) -> Plan:
        if desc.wire_bytes < self.min_stripe_bytes:
            return primary
        routes = dp.fabric.disjoint_routes(desc.src, desc.dst, self.max_stripes)
        if len(routes) < 2:
            return primary
        weights = [min(link.bandwidth for link in route) for route in routes]
        if desc.payload:
            total = desc.splittable_elems()
            if total < len(routes):
                return primary
            shares = _largest_remainder(total, weights)
            stripes = self._payload_stripes(desc, routes, shares)
        else:
            shares = _largest_remainder(desc.wire_bytes, weights)
            stripes = [
                Stripe(route, nbytes, None)
                for route, nbytes in zip(routes, shares)
                if nbytes > 0
            ]
        # One surviving share carries every byte: that is an unstriped leg.
        return stripes if len(stripes) > 1 else stripes[0].route

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

    Unlike :class:`MultiPathPolicy` the transfer is not split: the
    unstriped leg rides the winning route, so small transfers also
    benefit and payload geometry is untouched.
    """

    name = "congestion"
    max_candidates = 4

    def plan(self, dp, desc, primary) -> Plan:
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
        return best


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
