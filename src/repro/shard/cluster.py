"""The window driver: conservative-lookahead execution over shards.

:class:`ClusterJob` partitions a generated cluster spec into one
:class:`~repro.shard.shard.Shard` per node and drives them with
CMB-style null-message windows:

1. ``nxt`` = the minimum over every shard's next local event time and
   every window queue's earliest pending delivery.
2. The horizon is ``H = nxt + L`` where ``L`` is the minimum inter-node
   first-byte latency — no message sent at or after ``nxt`` can be
   delivered at or before ``H``... except exactly *at* ``H``, which the
   inclusive-horizon run makes safe: such a message is queued and
   injected next window at the same simulated time.
3. Each shard (ascending id) takes its merge-ordered batch, injects it,
   runs to ``H``, and hands its outbox back for routing.

Every execution mode — the in-process sequential driver here (the
pinned-deterministic default) and the multiprocessing
:class:`~repro.shard.executor.ShardedExecutor` — computes batches with
the *same* driver-side :class:`~repro.shard.mailbox.WindowQueue` logic,
so injected streams, per-shard step hashes, and ``events_popped`` are
bit-identical however shards are grouped onto workers.  The single-heap
*reference* mode runs every shard on one shared engine with immediate
delivery scheduling: timestamps, pop totals, message streams, and rank
results match the windowed modes exactly; only heap sequence numbering
differs (one global counter vs per-shard counters — DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hw.spec.schema import MachineSpec, SpecError
from repro.shard.mailbox import WindowQueue
from repro.shard.message import MessageDigest, WireModel
from repro.shard.shard import Shard
from repro.sim.engine import Engine


class ClusterError(Exception):
    """A sharded run failed (workload crash or deadlocked windows)."""


@dataclass
class ClusterResult:
    """Everything a sharded run produced, digests included.

    :meth:`signature` returns the determinism-relevant subset two runs
    must agree on byte-for-byte; ``step_digests`` additionally pins the
    per-shard pop streams when step collection was enabled.
    """

    mode: str                  # "sequential" | "mp" | "reference"
    machine: str
    workload: str
    shards: int
    workers: int               # 0 for in-process modes
    windows: int
    messages: int
    msg_digest: str
    events_popped: int
    per_shard_popped: Optional[List[int]]
    step_digests: Optional[Dict[int, str]]
    results: Dict[int, List[Any]]   # shard id -> per-process return values
    t_end: float
    bytes_by_class: Dict[str, int] = field(default_factory=dict)
    #: Pops executed on private per-shard graph engines (0 when eager).
    #: Deliberately outside :meth:`signature`: captured and eager runs of
    #: the same schedule must agree on everything *in* the signature.
    events_graphed: int = 0
    #: Host graph-launch events (one per active window per graph shard).
    graph_launches: int = 0

    def signature(self) -> dict:
        """The fields any two equivalent runs must match exactly."""
        sig = {
            "machine": self.machine,
            "workload": self.workload,
            "messages": self.messages,
            "msg_digest": self.msg_digest,
            "events_popped": self.events_popped,
            "results": self.results,
            "t_end": self.t_end,
            "bytes_by_class": self.bytes_by_class,
        }
        if self.step_digests is not None:
            sig["step_digests"] = self.step_digests
        if self.per_shard_popped is not None:
            sig["per_shard_popped"] = self.per_shard_popped
        return sig


class ClusterJob:
    """One cluster-scale workload, runnable in any execution mode."""

    def __init__(
        self,
        spec: MachineSpec,
        workload: str = "halo",
        cfg: Optional[dict] = None,
        collect_steps: bool = False,
    ) -> None:
        from repro.shard.workloads import resolve_workload

        if spec.n_nodes < 2:
            raise SpecError(
                f"machine {spec.name!r} has {spec.n_nodes} node(s); "
                "sharding needs at least 2"
            )
        self.spec = spec
        self.workload_name = workload
        self.build, defaults, self.graph = resolve_workload(workload)
        self.cfg = {**defaults, **(cfg or {})}
        self.collect_steps = collect_steps
        self.wire = WireModel(spec)
        self.lookahead = self.wire.lookahead()

    # -- mode dispatch -------------------------------------------------------
    def run(self, workers: Optional[int] = None) -> ClusterResult:
        """``workers=None``: pinned sequential default.  ``workers=N``:
        multiprocessing over N worker processes (``--shards N``)."""
        if workers is None:
            return self.run_sequential()
        from repro.shard.executor import ShardedExecutor

        return ShardedExecutor(self, workers).run()

    # -- sequential driver ---------------------------------------------------
    def _build_shards(self, engine: Optional[Engine] = None) -> List[Shard]:
        return [
            Shard(
                self.spec, sid, self.build, self.cfg,
                engine=engine, wire=self.wire,
                collect_steps=self.collect_steps and engine is None,
                graph=self.graph,
            )
            for sid in range(self.spec.n_nodes)
        ]

    def run_sequential(self) -> ClusterResult:
        shards = self._build_shards()
        queues = [WindowQueue() for _ in shards]
        digest = MessageDigest()
        windows = 0
        lookahead = self.lookahead
        try:
            while True:
                nxt = min(
                    min(s.next_time() for s in shards),
                    min(q.next_deliver() for q in queues),
                )
                if nxt == float("inf"):
                    break
                horizon = nxt + lookahead
                # Two-phase: take every batch before any shard runs, so a
                # message emitted this window can never jump the barrier
                # (the mp coordinator has the same shape by construction).
                batches = [q.take(horizon) for q in queues]
                # Digest the window's messages in global merge order: each
                # queue's batch is already sorted, but messages bound for
                # different shards must interleave by the same key.
                for msg in sorted(
                    (m for batch in batches for m in batch),
                    key=lambda m: m.merge_key,
                ):
                    digest.update(msg)
                outbound = []
                for shard, batch in zip(shards, batches):
                    outbound.extend(shard.step_window(horizon, batch))
                for msg in outbound:
                    queues[msg.dst_shard].post(msg)
                windows += 1
        except Exception:
            for shard in shards:
                shard.kill_all()
            raise
        self._check_done(shards)
        return self._assemble("sequential", 0, shards, windows, digest)

    # -- single-heap reference ----------------------------------------------
    def run_reference(self) -> ClusterResult:
        """Every shard on one shared engine, no windows — the semantic
        baseline the windowed modes are pinned against."""
        engine = Engine()
        shards = self._build_shards(engine=engine)
        mailboxes = {s.id: s.mailbox for s in shards}
        sent: List = []
        for s in shards:
            s.bridge.enable_direct(mailboxes, sent)
        engine.run()
        self._check_done(shards)
        digest = MessageDigest()
        for msg in sorted(sent, key=lambda m: m.merge_key):
            digest.update(msg)
        result = self._assemble("reference", 0, shards, 0, digest)
        result.events_popped = engine.events_popped
        result.per_shard_popped = None
        result.t_end = engine.now
        return result

    # -- assembly ------------------------------------------------------------
    def _check_done(self, shards: List[Shard]) -> None:
        stuck = [s.id for s in shards if not s.done]
        if stuck:
            detail = []
            for s in shards:
                arrived, waiting = s.mailbox.unmatched()
                if arrived or waiting:
                    detail.append(
                        f"shard {s.id}: {arrived} unread arrival(s), "
                        f"{waiting} parked recv(s)"
                    )
            raise ClusterError(
                f"windows drained but shard(s) {stuck} never finished "
                f"(cross-shard deadlock?); {'; '.join(detail) or 'no parked recvs'}"
            )

    def _assemble(
        self, mode: str, workers: int, shards: List[Shard],
        windows: int, digest: MessageDigest,
    ) -> ClusterResult:
        bytes_by_class: Dict[str, int] = {}
        for s in shards:
            for cls, n in s.bridge.bytes_by_class.items():
                bytes_by_class[cls] = bytes_by_class.get(cls, 0) + n
        per_shard = [s.engine.events_popped for s in shards]
        step_digests = None
        if self.collect_steps and mode != "reference":
            step_digests = {s.id: s.step_digest() for s in shards}
        return ClusterResult(
            events_graphed=sum(
                s.graph_engine.events_popped for s in shards
                if s.graph_engine is not None
            ),
            graph_launches=sum(s.graph_launches() for s in shards),
            mode=mode,
            machine=self.spec.name,
            workload=self.workload_name,
            shards=len(shards),
            workers=workers,
            windows=windows,
            messages=digest.count,
            msg_digest=digest.hexdigest(),
            events_popped=sum(per_shard),
            per_shard_popped=per_shard,
            step_digests=step_digests,
            results={s.id: s.results() for s in shards},
            t_end=max(s.busy_time() for s in shards),
            bytes_by_class=bytes_by_class,
        )
