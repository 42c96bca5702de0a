"""One engine shard: a node's worth of simulation state behind a mailbox.

A :class:`Shard` owns a private :class:`~repro.sim.engine.Engine`, a
node-local :class:`~repro.hw.topology.Fabric` built from a single-node
cut of the cluster spec, and the workload processes resident on that
node.  Nothing inside a shard holds a reference to another shard: the
*only* egress is the :class:`ShardBridge` hanging off the local
dataplane's ``bridge`` hook, and the only ingress is the shard's
:class:`~repro.shard.mailbox.Mailbox` (the ``module-ownership`` analyzer
rule enforces this boundary statically).

A workload addresses an off-shard endpoint with a :class:`RemoteBuffer`
proxy — global GPU id + byte geometry + matching tag.  Submitting a
descriptor whose destination is remote makes the bridge price the wire
segment analytically (:class:`~repro.shard.message.WireModel`) and emit
a packed :class:`~repro.shard.message.ShardMessage`; the local
completion event fires at the delivery time, which the conservative
window protocol guarantees lies beyond the current horizon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import hashlib

from repro.dataplane.descriptor import TransferDescriptor
from repro.dataplane.graph import GraphEngine, launch
from repro.hw.spec.schema import MachineSpec
from repro.hw.topology import Fabric
from repro.shard.mailbox import Mailbox, MailboxError
from repro.shard.message import ShardMessage, WireModel
from repro.sim.engine import Engine, collapsible
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.run import current, run_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.world import World


#: The step digest of a shard that popped nothing.
EMPTY_STEP_DIGEST = hashlib.sha256().hexdigest()


class RemoteBuffer:
    """Geometry-only proxy for a buffer hosted by another shard.

    Carries everything the bridge needs to price and address the wire
    segment: the destination's *global* GPU id, the byte count, and the
    rendezvous ``tag`` the receiver passes to :meth:`Shard.recv`.
    """

    __slots__ = ("gpu", "nbytes", "tag")

    #: Duck-typed Buffer surface (descriptor construction only).
    space = "remote"
    is_virtual = True

    def __init__(self, gpu: int, nbytes: int, tag: Any) -> None:
        if nbytes < 0:
            raise MailboxError(f"remote buffer with negative size {nbytes}")
        self.gpu = gpu
        self.nbytes = nbytes
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteBuffer gpu={self.gpu} {self.nbytes}B tag={self.tag!r}>"


def local_spec(cluster: MachineSpec, node: int) -> MachineSpec:
    """The single-node cut of a cluster spec a shard simulates locally.

    Drops the fabric (inter-node wiring is the wire model's job) but
    keeps the NIC classes so locally-routed host traffic prices exactly
    as in the full graph.  Every cut of one node template wires alike, so
    the cluster spec compiles that wiring once and hands it to each cut.
    """
    template = cluster.nodes[node]
    cut = MachineSpec(
        name=f"{cluster.name}#n{node}",
        nodes=(template,),
        nic_out=cluster.nic_out,
        nic_in=cluster.nic_in,
        params=cluster.params,
        fabric=None,
    )
    shared = cluster.cut_wirings.get(template)
    if shared is None:
        cluster.cut_wirings[template] = cut.wiring
    else:
        cut.__dict__["wiring"] = shared  # fills the cut's cached_property
    return cut


class ShardBridge:
    """The dataplane's cross-shard egress hook for one shard.

    Windowed mode (default): claimed descriptors append to the outbox
    the driver drains after each window.  Reference (single-heap) mode:
    :meth:`enable_direct` makes delivery scheduling immediate on the
    shared engine — same events, same timestamps, no windows.
    """

    def __init__(self, shard: "Shard") -> None:
        self.shard = shard
        self._seq = 0
        self._outbox: List[ShardMessage] = []
        #: Wire bytes by traffic class (the shard's slice of the ledger).
        self.bytes_by_class: Dict[str, int] = {}
        self._direct_mailboxes: Optional[Dict[int, Mailbox]] = None
        self._direct_log: Optional[List[ShardMessage]] = None

    def enable_direct(
        self, mailboxes: Dict[int, Mailbox], log: List[ShardMessage]
    ) -> None:
        self._direct_mailboxes = mailboxes
        self._direct_log = log

    # -- Dataplane hook protocol ---------------------------------------------
    def claims(self, desc: TransferDescriptor) -> bool:
        return isinstance(desc.dst, RemoteBuffer) or isinstance(desc.src, RemoteBuffer)

    def submit(self, desc: TransferDescriptor) -> Event:
        if isinstance(desc.src, RemoteBuffer):
            raise MailboxError(
                f"{desc.name}: cannot pull from a remote shard; "
                "the owning shard must push"
            )
        nbytes = desc.validate().wire_bytes
        shard = self.shard
        dst: RemoteBuffer = desc.dst
        dst_shard = shard.cluster.node_of(dst.gpu)
        if dst_shard == shard.id:
            raise MailboxError(
                f"{desc.name}: gpu {dst.gpu} is shard-local; use a local Buffer"
            )
        src_gpu = (
            shard.to_global(desc.src.gpu)
            if desc.src.gpu is not None
            else shard.gpu_base  # host-sourced traffic prices via the boot NIC
        )
        engine = shard.run_engine
        deliver = shard.wire.deliver_time(engine.now, src_gpu, dst.gpu, nbytes)
        self._seq += 1
        msg = ShardMessage(
            deliver, shard.id, self._seq, dst_shard, dst.gpu, src_gpu,
            dst.tag, nbytes, desc.traffic_class, desc.name,
        )
        cls = self.bytes_by_class
        cls[desc.traffic_class] = cls.get(desc.traffic_class, 0) + nbytes
        if self._direct_mailboxes is None:
            self._outbox.append(msg)
        else:
            self._direct_log.append(msg)
            # No mailbox: the shard was not built, which the reference
            # driver reports from the log once the run ends.
            mailbox = self._direct_mailboxes.get(dst_shard)
            if mailbox is not None:
                ev = engine.timeout_at(deliver, value=msg)
                ev.add_callback(mailbox._deliver)
                mailbox.injected += 1
        # Local completion at the analytically-priced arrival time; the
        # lookahead bound guarantees this lies beyond the current window.
        return engine.timeout_at(deliver)

    def drain(self) -> List[ShardMessage]:
        out, self._outbox = self._outbox, []
        return out


class Shard:
    """A node-local engine + fabric + workload, stepped window by window."""

    def __init__(
        self,
        cluster: MachineSpec,
        shard_id: int,
        build: Callable[["Shard", dict], List[Process]],
        cfg: dict,
        engine: Optional[Engine] = None,
        wire: Optional[WireModel] = None,
        graph: bool = False,
    ) -> None:
        self.cluster = cluster
        self.id = shard_id
        self.gpu_base = cluster.gpu_base(shard_id)
        self.n_local_gpus = cluster.nodes[shard_id].n_gpus
        dedicated = engine is None
        self.engine = Engine() if dedicated else engine
        if dedicated:
            self.engine.shard_id = shard_id
        self.wire = wire if wire is not None else WireModel(cluster)
        self.local_spec = local_spec(cluster, shard_id)
        #: Graph mode (``graph=True``, a dedicated engine, nothing
        #: observing): the node simulation — fabric, mailbox, resident
        #: processes, step hashing — runs on this private GraphEngine,
        #: whose pops count as ``events_graphed``, and the host engine
        #: carries one pre-priced graph-launch event per active window
        #: (:meth:`step_window`).  The window protocol, and with it every
        #: digest and timestamp, is unchanged.  None = eager shard.
        self.graph_engine = None
        if graph and dedicated and collapsible(self.engine):
            self.graph_engine = GraphEngine()
            self.graph_engine.shard_id = shard_id
        run_engine = self.run_engine
        #: Worlds the build embedded on this shard's fabric (:meth:`embed_world`).
        self._worlds: List["World"] = []
        # Every fabric built for this node — the shard's own, any other
        # the build makes — installs only the run's fault events scoped
        # to this node, in every execution mode.
        faults = current().faults
        with run_scope(faults=faults.for_shard(shard_id) if faults is not None else None):
            self.fabric = Fabric(run_engine, self.local_spec)
            if self.graph_engine is not None:
                self.fabric.dataplane.enable_plan_cache()
            self.mailbox = Mailbox(run_engine, shard_id)
            self.bridge = ShardBridge(self)
            self.fabric.dataplane.bridge = self.bridge
            #: Workload processes resident on this shard, in spawn order.
            self.procs: List[Process] = build(self, cfg)
        self._step_hash = None
        if dedicated:
            # A dedicated engine's pop stream is the shard's own, so it is
            # hashed; a shared reference engine interleaves every shard's
            # pops and is not.  The step log is attached after graph mode
            # is chosen, so the shard's own log is not an observer; the
            # graph engine replays the eager pop stream bit-for-bit, so
            # hashing its pops yields the same digest.
            self._step_hash = hashlib.sha256()
            run_engine.steps = []

    @property
    def run_engine(self) -> Engine:
        """The engine resident workload processes execute on."""
        return self.graph_engine if self.graph_engine is not None else self.engine

    # -- id mapping ----------------------------------------------------------
    def to_global(self, local_gpu: int) -> int:
        return self.gpu_base + local_gpu

    def to_local(self, global_gpu: int) -> int:
        local = global_gpu - self.gpu_base
        if not 0 <= local < self.n_local_gpus:
            raise MailboxError(
                f"gpu {global_gpu} is not hosted by shard {self.id}"
            )
        return local

    def owns_gpu(self, global_gpu: int) -> bool:
        return 0 <= global_gpu - self.gpu_base < self.n_local_gpus

    # -- workload surface ----------------------------------------------------
    def embed_world(self) -> "World":
        """A node-local World on this shard's fabric (``World(fabric=...)``);
        :meth:`close` closes it."""
        from repro.mpi.world import World

        world = World(fabric=self.fabric)
        self._worlds.append(world)
        return world

    def remote(self, gpu: int, nbytes: int, tag: Any) -> RemoteBuffer:
        """Address ``nbytes`` on global GPU ``gpu`` under rendezvous ``tag``."""
        return RemoteBuffer(gpu, nbytes, tag)

    def put(self, src, dst: RemoteBuffer, traffic_class: str = "shard",
            name: str = "xput") -> Event:
        """Convenience: submit a cross-shard put through the dataplane."""
        return self.fabric.dataplane.put(
            src, dst, traffic_class=traffic_class, name=name
        )

    def recv(self, gpu: int, tag: Any) -> Event:
        """An event firing when a message for (global ``gpu``, tag) lands."""
        self.to_local(gpu)  # ownership check
        return self.mailbox.recv(gpu, tag)

    # -- driver surface ------------------------------------------------------
    def next_time(self) -> float:
        """Earliest local event time; +inf when the shard engine is idle."""
        if self.graph_engine is not None:
            return min(self.engine.peek(), self.graph_engine.peek())
        return self.engine.peek()

    def step_window(self, horizon: float, batch: List[ShardMessage]) -> List[ShardMessage]:
        """Inject one window's messages, run to the horizon, drain egress."""
        t0 = self.engine.now
        self.mailbox.schedule(batch)
        if self.graph_engine is not None:
            launch(self.engine, self.graph_engine, horizon)
        else:
            self.engine.run(horizon)
        self._flush_steps()
        out = self.bridge.drain()
        obs = self.engine.obs
        if obs is not None:
            obs.span(
                "shard", "window", ("shard", self.id), t0, horizon,
                injected=len(batch), sent=len(out),
            )
        return out

    @property
    def done(self) -> bool:
        return all(p.triggered for p in self.procs)

    def results(self) -> List[Any]:
        return [p.value for p in self.procs]

    def close(self) -> None:
        """Tear the shard down once its report is taken; idempotent.

        Stops resident processes a crash or deadlock left running, closes
        the Worlds its build embedded, drops both engines' pending heaps
        and breaks the shard's own back-references (shard↔bridge,
        fabric↔dataplane).  No cycle is left, so the rank stacks, UCX
        workers, devices and the fabric die by reference counting as soon
        as the driver lets go of the shard.
        """
        for p in self.procs:
            p.kill()  # a no-op on a finished process
        for world in self._worlds:
            world.close()
        self._worlds.clear()
        self.engine.close()
        if self.graph_engine is not None:
            self.graph_engine.close()
        self.bridge.shard = None
        self.fabric.close()

    def _flush_steps(self) -> None:
        """Hash the keys the step log holds, in one pass and one update.

        Each key is ``f"{time.hex()}|{priority}|{seq};"``.  The pops of one
        instant share its ``float.hex()`` prefix: the comprehension's
        filter, true for every key, re-formats it only when the time
        changes, and always at zero (``-0.0 == 0.0`` but they format
        differently).  A comprehension makes no call per key.
        """
        keys = self.run_engine.steps
        if not keys:
            return
        last = prefix = None
        text = "".join([
            f"{prefix}{priority}|{seq};"
            for time, priority, seq in keys
            if (time == last and time) or (prefix := f"{(last := time).hex()}|")
        ])
        self._step_hash.update(text.encode())
        keys.clear()

    def report(self) -> dict:
        """The shard's picklable end-of-run record the driver assembles.

        ``step_digest`` is the SHA-256 of the shard's ``(time, priority,
        seq)`` pop stream (None on a shared reference engine), ``t_end``
        the time of the last event either shard engine processed, and
        ``graph_launches`` the host graph-launch events (0 when eager).
        """
        e, g = self.engine, self.graph_engine
        graphed = g is not None
        done = self.done
        self._flush_steps()  # a stuck or crashed shard's partial window
        return {
            "sid": self.id,
            "done": done,
            "results": self.results() if done else None,
            "unmatched": self.mailbox.unmatched(),
            "events_popped": e.events_popped,
            "events_graphed": g.events_popped if graphed else 0,
            "step_digest": (
                self._step_hash.hexdigest() if self._step_hash is not None else None
            ),
            "t_end": max(e.t_busy, g.t_busy) if graphed else e.t_busy,
            "bytes_by_class": self.bridge.bytes_by_class,
            "graph_launches": e.events_popped if graphed else 0,
        }

    @staticmethod
    def empty_report(sid: int) -> dict:
        """The report of a shard a run did not build: exactly what a built
        shard with nothing resident, no fault and no traffic reports."""
        return {
            "sid": sid,
            "done": True,
            "results": [],
            "unmatched": (0, 0),
            "events_popped": 0,
            "events_graphed": 0,
            "step_digest": EMPTY_STEP_DIGEST,
            "t_end": 0.0,
            "bytes_by_class": {},
            "graph_launches": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Shard {self.id} t={self.engine.now:.9f} procs={len(self.procs)}>"
