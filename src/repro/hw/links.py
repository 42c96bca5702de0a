"""Link model: latency + bandwidth + FIFO occupancy + mutable health.

A :class:`Link` is one *direction* of a physical channel (NVLink pair
direction, C2C up/down, NIC ingress/egress, HBM port).  Transfers acquire
the link's port for their serialization time (``nbytes / bandwidth``), so
concurrent transfers on one link queue FIFO — a deterministic approximation
of bandwidth sharing.  Wire latency is charged after serialization
(cut-through pipelining), so back-to-back transfers overlap latency.

:class:`LinkState` is the *only* legal mutation surface for fabric health
(``down_link`` / ``restore_link`` / ``degrade_bandwidth``): every mutation
bumps a monotonic fabric **epoch** that route caches and captured plans
compare against, and arms the dataplane's guarded execution path.  Direct
writes to link fields outside this API are flagged by the
``module-ownership`` analyzer rule (DESIGN.md §17).

:class:`repro.hw.topology.Fabric` composes links into routes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource


class Link:
    """One direction of a channel with FIFO-shared bandwidth.

    ``overhead`` is a fixed per-message port occupancy (header processing,
    doorbell ring, cacheline-granular write): bulk transfers pay it once,
    while storms of tiny messages (e.g. per-thread flag writes over C2C)
    serialize at ``overhead`` each — which is exactly the effect the paper's
    Fig 3 measures.

    ``kind`` names the link's telemetry class (``"nvlink"``, ``"switch"``,
    ``"nic_out"``, ...); :mod:`repro.bench.telemetry` aggregates counters by
    it.  ``stage`` is the link's rank in the hierarchical acquisition order
    (tx < nic_out < nic_in < rx): every route acquires links in strictly
    increasing stage, which keeps concurrent transfers deadlock-free.
    """

    __slots__ = (
        "engine",
        "name",
        "bandwidth",
        "base_bandwidth",
        "latency",
        "overhead",
        "kind",
        "stage",
        "port",
        "up",
        "outstanding_bytes",
        "bytes_carried",
        "n_transfers",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        bandwidth: float,
        latency: float,
        overhead: float = 0.0,
        kind: str = "",
        stage: int = 0,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"link {name}: bandwidth must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: negative latency")
        if overhead < 0:
            raise ValueError(f"link {name}: negative overhead")
        self.engine = engine
        self.name = name
        self.bandwidth = bandwidth
        #: Healthy-fabric bandwidth; ``bandwidth`` is the live (possibly
        #: degraded) value.  Mutated only through :class:`LinkState`.
        self.base_bandwidth = bandwidth
        self.latency = latency
        self.overhead = overhead
        self.kind = kind or name
        self.stage = stage
        self.port = Resource(engine, capacity=1, name=f"{name}.port")
        #: Link health; a down link refuses new acquisitions (transfers
        #: already past acquisition drain normally).
        self.up = True
        #: Deterministic congestion signal: bytes submitted to routes
        #: through this link and not yet completed (dataplane-maintained).
        self.outstanding_bytes = 0
        self.bytes_carried = 0
        self.n_transfers = 0

    def serialization_time(self, nbytes: int) -> float:
        return self.overhead + nbytes / self.bandwidth

    def account(self, nbytes: int, t0: Optional[float] = None, transfers: int = 1) -> None:
        """Count ``nbytes`` carried (telemetry) and publish the busy span.

        ``t0`` is when the payload started occupying the link (defaults to
        now, i.e. a zero-length span for instantaneous accounting).
        """
        self.bytes_carried += nbytes
        self.n_transfers += transfers
        obs = self.engine.obs
        if obs is not None:
            now = self.engine.now
            obs.span(
                "link", self.name, None,
                now if t0 is None else t0, now,
                kind=self.kind, nbytes=nbytes, transfers=transfers,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} bw={self.bandwidth:.3g}B/s lat={self.latency:.3g}s>"


class LinkDownError(RuntimeError):
    """A transfer hit a downed link before fully acquiring its route.

    Raised inside :func:`transfer_process`; the dataplane's guarded
    execution path catches it and re-routes (or returns a typed
    :class:`~repro.dataplane.plane.FabricFault` when no route survives).
    """

    def __init__(self, link: Link) -> None:
        super().__init__(f"link {link.name} is down")
        self.link = link


class LinkState:
    """The mutation API for one fabric's link health (DESIGN.md §17).

    Every mutation bumps ``epoch`` — the monotonic fabric version that the
    route caches (:meth:`repro.hw.topology.Fabric.route`,
    ``Dataplane.disjoint_routes``) and epoch-stamped captured plans
    (:class:`repro.dataplane.graph.PlanCache`) compare against — and sets
    ``armed``, switching the dataplane onto its guarded (retry-capable)
    stripe execution.  An unarmed fabric never pays a guard: the default
    healthy-fabric event stream is bit-identical to the pre-LinkState code.

    Mutations are deterministic simulated-time actions: a
    :class:`~repro.hw.faults.FaultSchedule` installs them as ordinary
    engine timeouts, so sequential and sharded drivers observe the same
    fabric history.
    """

    __slots__ = ("engine", "epoch", "armed", "_by_name")

    def __init__(self, engine: Engine, links: Sequence[Link]) -> None:
        self.engine = engine
        self.epoch = 0
        self.armed = False
        self._by_name: Dict[str, Link] = {}
        for link in links:
            # Well-formed graphs have unique names; on a collision keep the
            # first so lookups stay deterministic, mutations hit one link.
            self._by_name.setdefault(link.name, link)

    def find(self, name: str) -> Link:
        link = self._by_name.get(name)
        if link is None:
            raise KeyError(
                f"no link named {name!r} in this fabric "
                f"({len(self._by_name)} links)"
            )
        return link

    def arm(self) -> None:
        """Switch the owning dataplane onto guarded stripe execution.

        Called when a fault schedule is installed, so the whole run —
        including transfers submitted before the first fault fires — uses
        one execution shape and repeats bit-identically.
        """
        self.armed = True

    def down_link(self, name: str) -> Link:
        """Take a link out of service; queued/new acquisitions abort."""
        link = self.find(name)
        link.up = False
        self._bump("link_down", link)
        return link

    def restore_link(self, name: str) -> Link:
        """Return a link to service at its healthy bandwidth."""
        link = self.find(name)
        link.up = True
        link.bandwidth = link.base_bandwidth
        self._bump("link_restore", link)
        return link

    def degrade_bandwidth(self, name: str, factor: float) -> Link:
        """Scale a link to ``factor`` × its healthy bandwidth (0 < f <= 1)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"degrade_bandwidth({name!r}): factor must be in (0, 1], "
                f"got {factor!r}"
            )
        link = self.find(name)
        link.bandwidth = link.base_bandwidth * factor
        self._bump("link_degrade", link, factor=factor)
        return link

    def _bump(self, action: str, link: Link, **payload) -> None:
        self.epoch += 1
        self.armed = True
        obs = self.engine.obs
        if obs is not None:
            obs.instant(
                "fabric", action, t=self.engine.now,
                link=link.name, kind=link.kind, epoch=self.epoch,
                up=link.up, bandwidth=link.bandwidth, **payload,
            )


def transfer_process(
    engine: Engine,
    route: Sequence[Link],
    nbytes: int,
    on_wire_done: Optional[Callable[[], None]] = None,
    ledger=None,
):
    """Generator process moving ``nbytes`` along ``route``.

    Cut-through model: the payload serializes at the *bottleneck* bandwidth
    while occupying every hop, then the total wire latency elapses, then
    ``on_wire_done`` runs (the caller copies payload data there) and the
    process returns.

    Ports are taken in route order and held until the payload drains.
    That is deadlock-free only while every route climbs the stage ladder
    (:mod:`repro.hw.spec.schema`).  Multi-path two-hop NVLink detours
    (``nvl0->3`` then ``nvl3->2``) take two stage-2 ports, so concurrent
    detours can hold and wait on each other in a cycle — a known bug.

    Fault semantics: a down link is checked before *and after* each port
    acquisition (a fault can land while the transfer waits in the port
    queue).  On a hit, every already-held port is released un-accounted
    and :class:`LinkDownError` propagates to the waiter — the dataplane's
    guarded path re-routes.  A transfer that has acquired its full route
    is in flight and always drains, even through a later fault.
    """
    # The caller charges the congestion signal synchronously at submit (so
    # same-instant submissions see each other's load); this process owns the
    # discharge — the finally covers completion, fault aborts, and kills.
    try:
        if not route:
            raise ValueError("empty route")
        if nbytes < 0:
            raise ValueError("negative transfer size")

        t_held = []
        held = []
        for link in route:
            if not link.up:
                for h in reversed(held):
                    h.port.release()
                raise LinkDownError(link)
            yield link.port.acquire()
            if not link.up:
                link.port.release()
                for h in reversed(held):
                    h.port.release()
                raise LinkDownError(link)
            held.append(link)
            t_held.append(engine.now)
        # Price after acquisition so a degraded bandwidth at grant time is
        # the one charged; float-identical to entry pricing when healthy.
        bottleneck = min(link.bandwidth for link in route)
        ser = max(link.overhead for link in route) + nbytes / bottleneck
        total_latency = sum(link.latency for link in route)
        yield engine.timeout(ser)
        for link, t0 in zip(route, t_held):
            link.account(nbytes, t0)
            link.port.release()
        yield engine.timeout(total_latency)
        if on_wire_done is not None:
            on_wire_done()
        return nbytes
    finally:
        if ledger is not None:
            ledger.discharge_links(route, nbytes)


def start_transfer(
    engine: Engine,
    route: Sequence[Link],
    nbytes: int,
    on_wire_done: Optional[Callable[[], None]] = None,
    name: str = "xfer",
    ledger=None,
) -> Event:
    """Spawn a transfer process; the returned process-event fires on arrival."""
    return engine.process(
        transfer_process(engine, route, nbytes, on_wire_done, ledger), name=name
    )
