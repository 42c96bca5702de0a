"""The Dataplane: every simulated byte's single submission point.

Producers hand a :class:`TransferDescriptor` to :meth:`submit` (or the
:meth:`put` / :meth:`rma_put` / :meth:`control` conveniences, which
build one and submit it).  The dataplane validates it, resolves the
primary route through the owning :class:`~repro.hw.topology.Fabric`'s
route cache, asks the active :class:`~repro.dataplane.policy.PathPolicy`
for a plan, accounts the submission in the per-class ledger, and starts
its link transfers.  The base case is the unstriped leg: the policy
hands back a route and the descriptor's one cut-through link transfer
starts straight from it.  A multi-leg plan (two or more
:class:`~repro.dataplane.policy.Stripe` legs) starts one transfer per
stripe and completes at the max of the stripe arrivals (an ``AllOf``).

:meth:`rma_put` makes one decision of its own: a host-issued put
between IPC-mappable device peers stages through the source GPU's copy
engine with the cuda_ipc per-op setup cost — the mechanism the paper's
Kernel-Copy design bypasses (Section IV-A4) — before its wire legs
are planned.  Every other put goes through :meth:`submit`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.dataplane.descriptor import TransferDescriptor
from repro.dataplane.ledger import Ledger
from repro.dataplane.policy import PathPolicy
from repro.hw.links import LinkDownError, start_transfer
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.graph import RouteError
from repro.sim.events import AllOf, Event
from repro.sim.process import Holding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.topology import Fabric


class FabricFault:
    """Typed completion value of a transfer that lost every route.

    The guarded executor never *fails* the submission event (a failure
    would tear down every waiter of an ``AllOf``); instead the event
    succeeds with a FabricFault so callers can inspect what died.  It is
    falsy, so ``if not result`` reads naturally at wait sites.
    """

    __slots__ = ("name", "link", "t", "reason")

    def __init__(self, name: str, link: str, t: float, reason: str) -> None:
        self.name = name      # descriptor / stripe name
        self.link = link      # the downed link that severed the last route
        self.t = t            # simulated time the fault was declared
        self.reason = reason

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<FabricFault {self.name} @{self.t:.6g}s: {self.reason}>"


class Dataplane:
    """Route resolution + policy execution + accounting for one machine."""

    def __init__(self, fabric: "Fabric", policy: PathPolicy) -> None:
        self.fabric = fabric
        self.engine = fabric.engine
        self.ledger = Ledger()
        self.policy = policy
        #: Descriptors submitted (asserted by tests; stripes live in the ledger).
        self.submissions = 0
        #: Legs re-routed around a downed link by the guarded executor.
        self.reroutes = 0
        #: Legs that lost every route (completed as FabricFault).
        self.faults = 0
        #: Optional :class:`repro.dataplane.graph.PlanCache`: when set,
        #: repeated submissions of an identical descriptor shape replay a
        #: pre-priced plan instead of re-validating, re-routing,
        #: and re-planning.  Ledger accounting stays per-submission, so
        #: byte totals and simulated times are unchanged (DESIGN.md §16).
        self.plan_cache = None
        #: Cross-shard egress hook (see :mod:`repro.shard`): when set, a
        #: descriptor the bridge claims (its destination lives on another
        #: engine shard) is priced and mailed instead of routed locally —
        #: the *only* way bytes leave a shard.  None = unsharded fabric.
        self.bridge = None

    # -- producer surface --------------------------------------------------------
    def put(
        self,
        src: Buffer,
        dst: Buffer,
        traffic_class: str = "payload",
        name: str = "xfer",
    ) -> Event:
        """Move ``src``'s payload into ``dst``; event fires when data landed."""
        return self.submit(TransferDescriptor(
            src, dst, traffic_class=traffic_class, name=name,
        ))

    def rma_put(
        self,
        src: Buffer,
        dst: Buffer,
        traffic_class: str = "rma",
        name: str = "put",
    ) -> Event:
        """A put issued by *host* software (UCX put_nbx, MPI rendezvous).

        Device-to-device payloads between peers that can IPC-map each
        other ride the cuda_ipc path: a host-mediated async copy through
        the source GPU's copy engine, paying the per-op setup cost.
        Everything else (host buffers, same-GPU, inter-node GPUDirect,
        no-P2P staging, a cross-shard endpoint) is a plain :meth:`submit`.
        """
        desc = TransferDescriptor(src, dst, traffic_class=traffic_class, name=name)
        if not self._rides_copy_engine(src, dst):
            return self.submit(desc)
        desc.validate()
        self.submissions += 1
        engine_res = self.fabric.copy_engine(src.gpu)
        return Holding(
            self.engine, engine_res, self.fabric.spec.params.cuda_ipc_put_overhead,
            partial(self._execute, desc),
            ("copy_engine", engine_res.name, None, {"nbytes": desc.wire_bytes}),
        )

    def enable_plan_cache(self) -> "Dataplane":
        """Attach a fresh capture plan cache; idempotent, returns self."""
        if self.plan_cache is None:
            from repro.dataplane.graph import PlanCache

            self.plan_cache = PlanCache()
        return self

    def control(
        self,
        src: Buffer,
        dst: Buffer,
        nbytes: int,
        traffic_class: str = "control",
        name: str = "ctrl",
    ) -> Event:
        """Timed transfer of ``nbytes`` along the src->dst route, no payload.

        Used for control messages (flags, setup packets) whose logical
        content is applied by the caller on completion.
        """
        return self.submit(TransferDescriptor(
            src, dst, nbytes=nbytes, payload=False,
            traffic_class=traffic_class, name=name,
        ))

    def submit(self, desc: TransferDescriptor) -> Event:
        """Validate, plan, account, and launch one descriptor.

        When a cross-shard bridge is attached and claims the descriptor,
        it is handed off whole: the bridge prices the wire segment
        analytically and schedules delivery on the destination shard via
        the mailbox, returning the local completion event.
        """
        bridge = self.bridge
        if bridge is not None and bridge.claims(desc):
            self.submissions += 1
            return bridge.submit(desc)
        cache = self.plan_cache
        plan = cache.lookup(desc, self.fabric) if cache is not None else None
        if plan is None:
            desc.validate()
        self.submissions += 1
        return self._execute(desc, plan)

    # -- execution ---------------------------------------------------------------
    def _execute(self, desc: TransferDescriptor, plan=None) -> Event:
        if plan is None:
            cache = self.plan_cache
            plan = cache.lookup(desc, self.fabric) if cache is not None else None
        if plan is None:
            try:
                primary = self.fabric.route(desc.src, desc.dst)
            except RouteError:
                if not self.fabric.link_state.armed:
                    raise
                # Faults severed every path before this submit: declare
                # the same typed completion the guarded executor uses.
                # With one fault injected the scan names the culprit; with
                # several it names the first in deterministic link order.
                downed = next(
                    (l.name for l in self.fabric.iter_links() if not l.up), "",
                )
                self.faults += 1
                obs = self.engine.obs
                if obs is not None:
                    obs.instant(
                        "fabric", "fault", t=self.engine.now,
                        xfer=desc.name, link=downed, nbytes=desc.wire_bytes,
                    )
                fault = FabricFault(desc.name, downed, self.engine.now,
                                    "no route at submit")
                return Event(self.engine).succeed(fault)
            plan = self.policy.plan(self, desc, primary)
            if self.plan_cache is not None:
                self.plan_cache.store(desc, plan, self.fabric)
        self.ledger.account(desc, plan)
        obs = self.engine.obs
        if obs is not None:
            # One instant per accounted descriptor: the trace-replay
            # ingester (repro.workload.replay.from_chrome) rebuilds a
            # byte-exact schedule from exactly these events.
            obs.instant(
                "dataplane", desc.name,
                cls=desc.traffic_class, nbytes=desc.wire_bytes,
                src_gpu=desc.src.gpu, src_node=desc.src.node,
                dst_gpu=desc.dst.gpu, dst_node=desc.dst.node,
            )
        # A mutable-fabric run gives every leg the guarded, re-route-capable
        # executor.  Armed only by a fault schedule or an explicit LinkState
        # mutation, so the default path stays byte-identical to the
        # pre-LinkState dataplane.
        engine, armed = self.engine, self.fabric.link_state.armed
        start = partial(self._guarded, desc) if armed else start_transfer
        if type(plan) is tuple:  # the unstriped leg (shapes: policy.Plan)
            on_wire_done = partial(desc.dst.copy_from, desc.src) if desc.payload else None
            return start(engine, plan, desc.wire_bytes, on_wire_done, desc.name)
        if len(plan) < 2:
            raise TypeError(f"{desc.name}: a one-stripe plan; policy.Plan wants its route")
        return AllOf(engine, [
            start(engine, stripe.route, stripe.nbytes, stripe.on_wire_done,
                  f"{desc.name}.s{i}")
            for i, stripe in enumerate(plan)
        ])

    def _guarded(self, desc, engine, route, nbytes, on_wire_done, name: str) -> Event:
        """Start one leg with down-link retry (armed fabrics only).

        The wrapper catches :class:`LinkDownError` from the link
        transfer (a fault landed before the leg fully acquired its
        route), resolves a surviving route through the epoch-fresh route
        cache, and retries.  When no route survives, the wrapper
        *succeeds* with a :class:`FabricFault` — a typed completion the
        caller can test — so sibling stripes and ``AllOf`` waiters are
        not torn down.
        """

        def run():
            nonlocal route
            while True:
                blocked = next((ln for ln in route if not ln.up), None)
                if blocked is None:
                    try:
                        return (yield start_transfer(engine, route, nbytes, on_wire_done, name))
                    except LinkDownError as exc:
                        blocked = exc.link
                try:
                    route = self.fabric.route(desc.src, desc.dst)
                except RouteError:
                    self.faults += 1
                    obs = engine.obs
                    if obs is not None:
                        obs.instant(
                            "fabric", "fault", t=engine.now, xfer=name,
                            link=blocked.name, nbytes=nbytes,
                        )
                    return FabricFault(
                        name, blocked.name, engine.now,
                        f"no surviving route after {blocked.name} went down",
                    )
                self.reroutes += 1

        return engine.process(run(), name=f"{name}.guard")

    def _rides_copy_engine(self, src: Buffer, dst: Buffer) -> bool:
        return (
            src.space is MemSpace.DEVICE
            and dst.space is MemSpace.DEVICE
            and src.gpu != dst.gpu
            and src.gpu is not None
            and dst.gpu is not None
            and self.fabric.spec.can_peer_map(src.gpu, dst.gpu)
        )
