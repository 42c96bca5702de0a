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

from typing import Any, Callable, Dict, List, Optional

import hashlib

from repro.dataplane.descriptor import DescriptorError, TransferDescriptor
from repro.dataplane.graph import GraphEngine, launch
from repro.hw.spec.schema import MachineSpec
from repro.hw.topology import Fabric
from repro.shard.mailbox import Mailbox, MailboxError
from repro.shard.message import ShardMessage, WireModel
from repro.sim.engine import Engine, collapsible
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.run import current, run_scope


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
    as in the full graph.
    """
    return MachineSpec(
        name=f"{cluster.name}#n{node}",
        nodes=(cluster.nodes[node],),
        nic_out=cluster.nic_out,
        nic_in=cluster.nic_in,
        params=cluster.params,
        fabric=None,
    )


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
        shard = self.shard
        dst: RemoteBuffer = desc.dst
        nbytes = desc.nbytes if desc.nbytes is not None else desc.src.nbytes
        if desc.payload and desc.src.nbytes != dst.nbytes:
            raise DescriptorError(
                f"{desc.name}: transfer size mismatch: src {desc.src.nbytes} B "
                f"vs remote dst {dst.nbytes} B"
            )
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
            mailbox = self._direct_mailboxes[dst_shard]
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
        collect_steps: bool = False,
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
        if collect_steps and not dedicated:
            raise ValueError("step collection needs a dedicated shard engine")
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
        # Every fabric built for this node — the shard's own, a World the
        # build embeds — installs only the run's fault events scoped to
        # this node, in every execution mode.
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
        if collect_steps:
            # Hooked after graph mode is chosen, so the shard's own hash
            # is not an observer; the graph engine replays the eager pop
            # stream bit-for-bit, so hashing its pops yields the same digest.
            self._step_hash = hashlib.sha256()
            run_engine.on_step = self._hash_step

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

    def kill_all(self) -> None:
        """Abort teardown: stop resident processes without resuming them."""
        for p in self.procs:
            if not p.triggered:
                p.kill()

    def _hash_step(self, time: float, priority: int, seq: int) -> None:
        self._step_hash.update(f"{time.hex()}|{priority}|{seq};".encode())

    def report(self) -> dict:
        """The shard's picklable end-of-run record the driver assembles.

        ``step_digest`` is the SHA-256 of the shard's ``(time, priority,
        seq)`` pop stream (None unless collected), ``t_end`` the time of
        the last event either shard engine processed, and
        ``graph_launches`` the host graph-launch events (0 when eager).
        """
        e, g = self.engine, self.graph_engine
        graphed = g is not None
        done = self.done
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Shard {self.id} t={self.engine.now:.9f} procs={len(self.procs)}>"
