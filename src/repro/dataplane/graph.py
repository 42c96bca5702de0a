"""Captured transfer graphs: price once, replay as one submission.

The eager dataplane pays full per-descriptor work on every submit —
``validate()`` geometry checks, fabric route resolution, policy stripe
planning — and the host engine pops one heap event per descriptor stage.
Workloads that replay the *identical* transfer sequence thousands of
times (Jacobi halo exchanges, LLM dp/tp/pp training steps) re-derive the
same routes and stripe plans every iteration.  This module removes both
costs, mirroring CUDA stream capture + graph launch:

``PlanCache``
    Descriptor-identity -> pre-resolved stripe plan.  The first submit
    of a (src, dst, bytes, class) shape validates, routes, and stripes
    as usual and records the plan; every later submit replays the cached
    stripes without touching the route search or the policy.  Ledger
    accounting still happens per submission, so per-class byte totals
    are identical to the eager path.

``GraphEngine``
    An :class:`~repro.sim.engine.Engine` whose pops are accounted as
    ``events_graphed`` instead of ``events_popped``.  A captured replay
    runs the *same* simulation generators on a private GraphEngine — so
    every timestamp, tie-break, and digest is bit-identical by
    construction — while the host-visible engine sees a single
    graph-launch event per replayed window (:func:`launch`, shared by
    world-mode replay and graph-mode shards).  The work does not vanish:
    it moves off the host heap into the graph executor, exactly the way
    a real CUDA graph moves launch work off the CPU.

``TransferGraph``
    The stream-capture record: ops enqueued on a simulated CUDA stream
    between ``begin_capture`` / ``end_capture`` are recorded (not
    executed, CUDA semantics) and later replayed by one
    ``graph_launch`` stream op per iteration (:mod:`repro.cuda.stream`).

Graph replay collapses host-visible pops, so — like wave coalescing —
it runs only while nothing observes them
(:func:`repro.sim.engine.collapsible`).  Any observer, including an empty
run bus, selects the eager path: that is how tests assert that
simulated times and SHA-256 digests are unchanged by capture.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Engine


class GraphError(RuntimeError):
    """An invalid capture: cross-stream dependency, freed buffer, misuse."""


class GraphCounters:
    """Process-wide capture/replay counters (reset per bench entry)."""

    __slots__ = ("launches", "captured_plans", "replayed_descriptors", "replanned")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Graph-launch submissions (one per replayed window / iteration).
        self.launches = 0
        #: Plan-cache misses: descriptors validated + routed + striped.
        self.captured_plans = 0
        #: Plan-cache hits: descriptors replayed from a pre-priced plan.
        self.replayed_descriptors = 0
        #: Epoch-stale plans cheaply re-bound (re-routed dead legs only,
        #: no re-validate / re-price) after a fabric mutation.
        self.replanned = 0

    def snapshot(self) -> dict:
        return {
            "launches": self.launches,
            "captured_plans": self.captured_plans,
            "replayed_descriptors": self.replayed_descriptors,
            "replanned": self.replanned,
        }

    def absorb(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` from another process into this one."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + snap[name])


#: Module-level accumulator.  Forked shard workers count into their own
#: copy from zero and the cluster driver absorbs each worker's snapshot.
GRAPHS = GraphCounters()


class GraphEngine(Engine):
    """A private engine whose pops count as ``events_graphed``.

    Subclassing keeps every scheduling semantic — heap ordering,
    ``(time, priority, seq)`` tie-breaks, pooled timeouts, horizon
    clamping — literally the same code, so a simulation moved onto a
    GraphEngine reproduces the eager event stream bit-for-bit.  Only the
    stats field differs: pops land in :data:`~repro.sim.engine.STATS`
    as ``events_graphed``, keeping ``events_popped`` an honest count of
    host-heap traffic.
    """

    __slots__ = ()

    STATS_POPPED_FIELD = "events_graphed"


def launch(host: Engine, graph: GraphEngine, horizon: float) -> None:
    """Run ``graph`` up to ``horizon`` behind one host graph-launch event.

    The launch is a pre-priced host event at the graph's first pending
    activity (none when nothing is due by ``horizon``); every other pop
    runs on the graph engine and is accounted as ``events_graphed``.
    """
    nxt = graph.peek()
    if nxt <= horizon:
        host.timeout_at(nxt)
    host.run(horizon)
    graph.run(horizon)


# --------------------------------------------------------------------------
# dataplane plan cache
# --------------------------------------------------------------------------

class PlanCache:
    """Descriptor identity -> pre-resolved stripe plan.

    The key is endpoint *object* identity plus wire shape: two submits
    hit the same plan only when they name the same live buffers with the
    same byte-count, payload mode, and traffic class — exactly the
    repeated-iteration case.  Stripes are pure (route tuple, byte count,
    completion callback over the same buffers), so replaying them is
    equivalent to re-planning; tests pin that equivalence.

    Captured plans pin their endpoint buffers: replaying a plan whose
    buffer has been freed since capture raises :class:`GraphError` (the
    hazard the ``graph-capture-mutation`` analyzer rule flags statically).

    Plans are **epoch-stamped** (DESIGN.md §17): a plan captured under
    fabric epoch E replays unchecked while the epoch still reads E.  After
    a link mutation bumps the epoch, the next lookup *re-binds* the plan
    ``cudaGraphExecUpdate``-style: stripes whose routes are fully up keep
    their routes and prices untouched; stripes crossing a downed link are
    re-routed through the (epoch-fresh) fabric route — no re-validation
    and no re-pricing of unchanged legs.  Bandwidth degradation never
    invalidates a leg because stripes price bandwidth at port-grant time.
    A plan whose dead leg has no surviving route is dropped (full re-plan
    on this submission; the guarded executor may still fault it).
    """

    __slots__ = ("_plans", "hits", "misses")

    def __init__(self) -> None:
        self._plans: Dict[Tuple, Tuple[Any, tuple, int]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(desc) -> Tuple:
        return (
            id(desc.src), id(desc.dst), desc.nbytes,
            desc.payload, desc.traffic_class,
        )

    def lookup(self, desc, fabric) -> Optional[tuple]:
        """Cached stripes for ``desc`` on ``fabric``, or None on miss
        (then validate); an epoch-stale plan is re-bound first."""
        key = self._key(desc)
        entry = self._plans.get(key)
        if entry is None:
            return None
        wire_bytes, stripes, epoch = entry
        for buf in (desc.src, desc.dst):
            if getattr(buf, "freed", False):
                raise GraphError(
                    f"{desc.name}: captured plan references freed buffer "
                    f"{buf.label!r} — re-capture after freeing endpoints"
                )
        if epoch != fabric.link_state.epoch:
            stripes = self._rebind(key, desc, stripes, fabric)
            if stripes is None:
                return None
        desc.wire_bytes = wire_bytes
        self.hits += 1
        GRAPHS.replayed_descriptors += 1
        return stripes

    def _rebind(self, key, desc, stripes, fabric) -> Optional[tuple]:
        """Re-route dead legs of an epoch-stale plan; None drops the plan."""
        from repro.hw.topology import RouteError

        rebound = []
        moved = 0
        for stripe in stripes:
            if all(link.up for link in stripe.route):
                rebound.append(stripe)
                continue
            try:
                fresh = fabric.route(desc.src, desc.dst)
            except RouteError:
                del self._plans[key]
                return None
            rebound.append(type(stripe)(fresh, stripe.nbytes, stripe.on_wire_done))
            moved += 1
        stripes = tuple(rebound)
        self._plans[key] = (self._plans[key][0], stripes, fabric.link_state.epoch)
        GRAPHS.replanned += 1
        obs = fabric.engine.obs
        if obs is not None:
            obs.instant(
                "plan", "rebind", t=fabric.engine.now, xfer=desc.name,
                epoch=fabric.link_state.epoch, legs_moved=moved,
                legs_kept=len(stripes) - moved,
            )
        return stripes

    def store(self, desc, stripes: tuple, fabric) -> None:
        epoch = fabric.link_state.epoch
        self._plans[self._key(desc)] = (desc.wire_bytes, tuple(stripes), epoch)
        self.misses += 1
        GRAPHS.captured_plans += 1
        obs = fabric.engine.obs
        if obs is not None:
            obs.instant(
                "plan", "build", t=fabric.engine.now, xfer=desc.name,
                epoch=epoch, stripes=len(stripes),
            )


# --------------------------------------------------------------------------
# stream capture record
# --------------------------------------------------------------------------

class _GraphOp:
    """One captured stream op: a generator factory plus provenance."""

    __slots__ = ("make", "label", "buffers")

    def __init__(self, make, label: str, buffers: tuple) -> None:
        self.make = make
        self.label = label
        self.buffers = buffers


class TransferGraph:
    """Ops recorded between ``begin_capture`` and ``end_capture``.

    The capture belongs to one stream; per CUDA capture-mode-global
    semantics, work enqueued on any *other* stream of the same device
    while the capture is open is a cross-stream dependency the capture
    cannot represent, and raises :class:`GraphError`.  ``launch`` replays
    the recorded ops in record order as one stream op.
    """

    __slots__ = ("stream", "ops", "sealed", "launches")

    def __init__(self, stream) -> None:
        self.stream = stream
        self.ops: List[_GraphOp] = []
        self.sealed = False
        self.launches = 0

    def add(self, make, label: str, buffers: tuple = ()) -> None:
        if self.sealed:
            raise GraphError(
                f"graph on {self.stream.name}: cannot record into a sealed "
                "capture — begin a new capture instead"
            )
        self.ops.append(_GraphOp(make, label, buffers))

    def seal(self) -> "TransferGraph":
        if not self.ops:
            raise GraphError(
                f"graph on {self.stream.name}: empty capture — no ops were "
                "enqueued between begin_capture and end_capture"
            )
        self.sealed = True
        return self

    def check_buffers(self) -> None:
        """Raise if any captured endpoint buffer was freed since capture."""
        for op in self.ops:
            for buf in op.buffers:
                if getattr(buf, "freed", False):
                    raise GraphError(
                        f"graph on {self.stream.name}: op {op.label!r} "
                        f"references freed buffer {buf.label!r} — freeing a "
                        "captured buffer invalidates the graph"
                    )
