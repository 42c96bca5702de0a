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

from heapq import heappush
from typing import List, Mapping, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event, PRIORITY_NORMAL, PRIORITY_URGENT
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
        Link.check(name, bandwidth, latency, overhead)
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
        #: Deterministic congestion signal: bytes of started transfers
        #: whose route crosses this link and that have not ended yet
        #: (charged and discharged only by the link transfer).
        self.outstanding_bytes = 0
        self.bytes_carried = 0
        self.n_transfers = 0

    @staticmethod
    def check(name: str, bandwidth: float, latency: float, overhead: float) -> None:
        """The constructor's checks, also run when a link table compiles."""
        if bandwidth <= 0:
            raise ValueError(f"link {name}: bandwidth must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: negative latency")
        if overhead < 0:
            raise ValueError(f"link {name}: negative overhead")

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

    Fails the event :func:`start_transfer` returned; the dataplane's guarded
    execution path catches it and re-routes (or returns a typed
    :class:`~repro.dataplane.plane.FabricFault` when no route survives).
    """

    def __init__(self, link: Link) -> None:
        super().__init__(f"link {link.name} is down")
        self.link = link


class LinkState:
    """The mutation API for one fabric's link health (DESIGN.md §17).

    Every mutation bumps ``epoch`` — the monotonic fabric version that the
    fabric's one route cache (filled by :meth:`repro.hw.topology.Fabric.route`
    and :meth:`~repro.hw.topology.Fabric.disjoint_routes`) and epoch-stamped
    captured plans (:class:`repro.dataplane.graph.PlanCache`) compare
    against — and sets ``armed``, switching the dataplane onto its guarded
    (retry-capable) stripe execution.  An unarmed fabric never pays a
    guard: the default healthy-fabric event stream is bit-identical to the
    pre-LinkState code.

    Mutations are deterministic simulated-time actions: a
    :class:`~repro.hw.faults.FaultSchedule` installs them as ordinary
    engine timeouts, so sequential and sharded drivers observe the same
    fabric history.
    """

    __slots__ = ("engine", "epoch", "armed", "_links")

    def __init__(self, engine: Engine, links: Mapping[str, Link]) -> None:
        self.engine = engine
        self.epoch = 0
        self.armed = False
        self._links = links  # a dict, or a LinkGraph (builds links on lookup)

    def find(self, name: str) -> Link:
        link = self._links.get(name)
        if link is None:
            raise KeyError(
                f"no link named {name!r} in this fabric "
                f"({len(self._links)} links)"
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


#: The stages of a :class:`_Transfer`, in order (None once it finished).
_BOOT, _GRANT, _DRAIN, _ARRIVE = range(4)


class _Transfer(Event):
    """Moves ``nbytes`` along ``route`` as a chain of heap entries.

    Cut-through model: the payload serializes at the *bottleneck* bandwidth
    while holding every hop's port (taken in route order), then the total
    wire latency elapses, then ``on_wire_done`` runs and the event succeeds
    with ``nbytes``.  The object is its own heap entry at each stage, and a
    pop runs the stage ``_stage`` names (a busy port's grant calls back).

    Holding ports in route order is deadlock-free only while every route
    climbs the stage ladder (:mod:`repro.hw.spec.schema`).  Multi-path
    two-hop NVLink detours (``nvl0->3`` then ``nvl3->2``) take two stage-2
    ports, so concurrent detours can wait on each other in a cycle — a
    known bug.  A down link is checked before *and after* each grant; on a
    hit the held ports are released in reverse and :class:`LinkDownError`
    fails the event.  A transfer holding its full route always drains.

    The transfer owns its route's congestion signal: it charges every
    link's ``outstanding_bytes`` when it is built, so a submission planned
    later in the same event cascade sees the load, and discharges them
    when it ends, by completion or abort (DESIGN.md §17).
    """

    __slots__ = (
        "route", "nbytes", "on_wire_done", "name", "_stage", "_t_held", "_latency",
    )

    def __init__(self, engine, route, nbytes, on_wire_done=None, name="xfer") -> None:
        # Event.__init__ and the boot push, inlined, as Chain does.
        self.engine = engine
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = True
        self._triggered = self._processed = self._cancelled = False
        self.route = route
        self.nbytes = nbytes
        self.on_wire_done = on_wire_done
        self.name = name
        for link in route:
            link.outstanding_bytes += nbytes
        self._stage = _BOOT
        self._t_held: List[float] = []
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (engine._now, PRIORITY_URGENT, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)

    def _run_callbacks(self, _ev: Optional[Event] = None) -> None:
        # Popped off the heap, or called back by a busy port's grant.
        stage = self._stage
        if stage is None:  # finished: wake the waiters
            return Event._run_callbacks(self)
        engine, route, t_held = self.engine, self.route, self._t_held
        try:
            if stage == _ARRIVE:
                if self.on_wire_done is not None:
                    self.on_wire_done()
                return self._end(None)
            if stage == _DRAIN:
                # Link.account and Resource.release, inlined per hop: the
                # counters and busy span, then the port to its next waiter.
                nbytes, obs, now = self.nbytes, engine.obs, engine._now
                for link, t0 in zip(route, t_held):
                    link.bytes_carried += nbytes
                    link.n_transfers += 1
                    if obs is not None:
                        obs.span(
                            "link", link.name, None, t0, now,
                            kind=link.kind, nbytes=nbytes, transfers=1,
                        )
                    port = link.port
                    if port._in_use <= 0:
                        raise RuntimeError("release() without acquire()")
                    if port._queue:
                        port._queue.popleft().succeed(port)
                    else:
                        port._in_use -= 1
                self._stage = _ARRIVE
                t = engine._now + self._latency
            else:
                if stage == _BOOT:
                    if not route:
                        raise ValueError("empty route")
                    if self.nbytes < 0:
                        raise ValueError("negative transfer size")
                else:  # granted; a fault may have landed while it was pending
                    t_held.append(engine._now)
                    link = route[len(t_held) - 1]
                    if not link.up:
                        self._abort(link)
                hop = len(t_held)
                if hop < len(route):  # request the next hop's port
                    link = route[hop]
                    if not link.up:
                        self._abort(link)
                    self._stage = _GRANT
                    port = link.port
                    if port._in_use >= port.capacity:  # busy: wait in its queue
                        port.acquire().callbacks.append(self._run_callbacks)
                        return
                    port._in_use += 1
                    t = engine._now
                else:
                    # Priced after the last grant: a degrade while queued counts.
                    # Plain loops: min/max/sum of the same floats, in route order.
                    bottleneck, overhead, latency = route[0].bandwidth, route[0].overhead, 0
                    for link in route:
                        if link.bandwidth < bottleneck:
                            bottleneck = link.bandwidth
                        if link.overhead > overhead:
                            overhead = link.overhead
                        latency += link.latency
                    ser = overhead + self.nbytes / bottleneck
                    self._latency = latency
                    self._stage = _DRAIN
                    t = engine._now + ser
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            return self._end(exc)
        # The next stage at t: Engine._schedule_event, inlined on this hot path.
        engine._seq = seq = engine._seq + 1
        heap = engine._heap
        heappush(heap, (t, PRIORITY_NORMAL, seq, self))
        if len(heap) > engine.peak_heap:
            engine.peak_heap = len(heap)

    def _abort(self, link: Link) -> None:
        for held in reversed(self.route[:len(self._t_held)]):
            held.port.release()
        raise LinkDownError(link)

    def _end(self, exc: Optional[BaseException]) -> None:
        nbytes = self.nbytes
        for link in self.route:
            link.outstanding_bytes -= nbytes
        self._stage = None  # before the push, or the next pop re-runs a stage
        if exc is None:
            self.succeed(nbytes)
        else:
            self.engine._body_failed(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transfer {self.name}>"


#: ``start_transfer(engine, route, nbytes, on_wire_done=None, name="xfer")``
#: starts a transfer; the returned event fires with ``nbytes`` on arrival.
#: The transfer class is its own starter: a submit pays no wrapper call.
start_transfer = _Transfer
