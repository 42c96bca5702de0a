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

Only the shards a run uses are built and stepped (:meth:`ClusterJob.
built_shards`): the workload's hosts plus every shard the run's fault
schedule names.  Every other shard is reported with
:meth:`Shard.empty_report <repro.shard.shard.Shard.empty_report>`, and a
message addressed to one raises :class:`ClusterError`.

:meth:`ClusterJob._drive` is the only window loop.  It talks to
contiguous *shard blocks* with one request per window:

====================================  =======================================
driver -> block                       block -> driver
====================================  =======================================
(block built)                         ``("ready", {sid: peek})``
``("run", horizon, {sid: batch})``    ``("out", [ShardMessage], {sid: peek})``
``("finish",)``                       ``("result", [Shard.report()])``
``("stop",)`` (forked workers)        (exit)
====================================  =======================================

The sequential mode (the pinned-deterministic default) drives one
in-process block of every built shard, which answers a request with a direct
call; ``run(workers=N)`` forks one worker per block, each serving the
same handler over a pipe.  Batches are taken driver-side with the same
:class:`~repro.shard.mailbox.WindowQueue` logic in both, so injected
streams, per-shard step hashes, and ``events_popped`` are bit-identical
however shards are grouped onto workers.  The single-heap *reference*
mode runs every shard on one shared engine with immediate delivery
scheduling: timestamps, pop totals, message streams, and rank results
match the windowed modes exactly; only heap sequence numbering differs
(one global counter vs per-shard counters — DESIGN.md §14).
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dataplane.graph import GRAPHS
from repro.hw.spec.schema import MachineSpec, SpecError
from repro.shard.mailbox import WindowQueue
from repro.shard.message import MessageDigest, ShardMessage, WireModel
from repro.shard.shard import Shard
from repro.sim.engine import STATS, Engine
from repro.sim.run import current


class ClusterError(Exception):
    """A sharded run failed (workload crash or deadlocked windows)."""


@dataclass
class ClusterResult:
    """Everything a sharded run produced, digests included.

    :meth:`signature` returns the determinism-relevant subset two runs
    must agree on byte-for-byte; ``step_digests`` additionally pins the
    per-shard pop streams of a windowed run (None for a reference run).
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


class _Block:
    """Built shards (ascending ids) answering window requests by direct call."""

    def __init__(self, job: "ClusterJob", sids: List[int]) -> None:
        self.sids = sids
        self.shards = [
            Shard(
                job.spec, sid, job.build, job.cfg, wire=job.wire, graph=job.graph,
            )
            for sid in sids
        ]
        self._reply = ("ready", self._peeks())

    def _peeks(self) -> Dict[int, float]:
        return {s.id: s.next_time() for s in self.shards}

    def handle(self, req: tuple) -> tuple:
        if req[0] == "finish":
            return ("result", [s.report() for s in self.shards])
        _, horizon, batches = req
        out = []
        for s in self.shards:  # ascending shard id
            out.extend(s.step_window(horizon, batches.get(s.id, [])))
        return ("out", out, self._peeks())

    def send(self, req: tuple) -> None:
        self._reply = self.handle(req)

    def recv(self) -> tuple:
        return self._reply

    def close(self) -> None:
        """Tear every shard down (:meth:`Shard.close`), finished or not."""
        for s in self.shards:
            s.close()


def _serve(conn, job: "ClusterJob", sids: List[int]) -> None:
    """Forked worker: build a block, then answer requests until ``stop``.

    The worker's own process-wide counters start from zero, and their
    snapshots ride back once with the ``finish`` reply, so the driver can
    absorb what its engines and plan caches counted.
    """
    STATS.reset()
    GRAPHS.reset()
    try:
        block = _Block(job, sids)
        conn.send(block.recv())
        while True:
            req = conn.recv()
            if req[0] == "stop":
                return
            reply = block.handle(req)
            if req[0] == "finish":
                reply += (STATS.snapshot(), GRAPHS.snapshot())
            conn.send(reply)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - driver already gone
            pass
    finally:
        conn.close()


class _Worker:
    """A forked process serving one block over a pipe."""

    def __init__(self, ctx, job: "ClusterJob", sids: List[int]) -> None:
        self.sids = sids
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, job, sids), daemon=True)
        self.proc.start()
        child.close()

    def send(self, req: tuple) -> None:
        self.conn.send(req)

    def recv(self) -> tuple:
        try:
            msg = self.conn.recv()
        except EOFError as exc:
            raise ClusterError("worker died without reporting an error") from exc
        if msg[0] == "error":
            raise ClusterError(f"worker failed:\n{msg[1]}")
        if msg[0] == "result":
            _, reports, stats, graphs = msg
            STATS.absorb(stats)
            GRAPHS.absorb(graphs)
            return ("result", reports)
        return msg

    def close(self) -> None:
        # An explicit stop: forked siblings hold copies of this pipe end,
        # so closing it would not reach the worker as EOF.
        try:
            self.conn.send(("stop",))
        except OSError:  # the worker already exited after an error
            pass
        self.conn.close()
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
            self.proc.join()


class ClusterJob:
    """One cluster-scale workload, runnable in any execution mode."""

    def __init__(
        self,
        spec: MachineSpec,
        workload: str = "halo",
        cfg: Optional[dict] = None,
    ) -> None:
        from repro.shard.workloads import resolve_workload

        if spec.n_nodes < 2:
            raise SpecError(
                f"machine {spec.name!r} has {spec.n_nodes} node(s); "
                "sharding needs at least 2"
            )
        self.spec = spec
        self.workload_name = workload
        entry = resolve_workload(workload)
        self.build, self.graph, self._hosts = entry.build, entry.graph, entry.hosts
        self.cfg = {**entry.defaults, **(cfg or {})}
        self.wire = WireModel(spec)
        self.lookahead = self.wire.lookahead()

    def built_shards(self) -> List[int]:
        """The shards a run builds and steps, ascending: the workload's
        hosts plus every shard the run's fault schedule names.  Read when
        a run starts, since the faults come from its run scope."""
        sids = set(self._hosts(self.spec, self.cfg))
        faults = current().faults
        if faults is not None:
            sids.update(
                sid for sid in range(self.spec.n_nodes) if len(faults.for_shard(sid))
            )
        return sorted(sids)

    @staticmethod
    def _unbuilt(msg: ShardMessage) -> ClusterError:
        return ClusterError(
            f"{msg.name}: message for gpu {msg.dst_gpu} is addressed to "
            f"shard {msg.dst_shard}, which the workload does not host "
            "(the shard was not built)"
        )

    # -- windowed modes ------------------------------------------------------
    def run(self, workers: Optional[int] = None) -> ClusterResult:
        """``workers=None``: pinned sequential default.  ``workers=N``:
        contiguous blocks of the built shards on N forked workers
        (``--shards N``)."""
        if workers is None:
            return self.run_sequential()
        if workers < 1:
            raise ClusterError(f"workers must be >= 1, got {workers}")
        sids = self.built_shards()
        n = len(sids)
        k = min(workers, n)  # more workers than shards would fork idle ones
        # fork: workers inherit the job (spec, workload build fn, cfg)
        # without a pickle round-trip; only window traffic crosses pipes.
        ctx = multiprocessing.get_context("fork")
        return self._drive("mp", [
            _Worker(ctx, self, sids[n * w // k:n * (w + 1) // k])
            for w in range(k)
        ])

    def run_sequential(self) -> ClusterResult:
        return self._drive("sequential", [_Block(self, self.built_shards())])

    def _drive(self, mode: str, blocks: list) -> ClusterResult:
        """The window loop, over blocks that together hold every built shard."""
        queues = {sid: WindowQueue() for block in blocks for sid in block.sids}
        digest = MessageDigest()
        windows = 0
        lookahead = self.lookahead
        inf = float("inf")
        try:
            peeks: Dict[int, float] = {}
            for block in blocks:
                peeks.update(block.recv()[1])
            while True:
                nxt = min(
                    min(peeks.values(), default=inf),
                    min((q.next_deliver() for q in queues.values()), default=inf),
                )
                if nxt == inf:
                    break
                horizon = nxt + lookahead
                # Two-phase: take every batch before any shard runs, so a
                # message emitted this window can never jump the barrier.
                batches = {sid: q.take(horizon) for sid, q in queues.items()}
                # Digest the window's messages in global merge order: each
                # queue's batch is already sorted, but messages bound for
                # different shards must interleave by the same key.
                for msg in sorted(
                    (m for batch in batches.values() for m in batch),
                    key=lambda m: m.merge_key,
                ):
                    digest.update(msg)
                for block in blocks:
                    block.send(("run", horizon, {
                        sid: batches[sid] for sid in block.sids if batches[sid]
                    }))
                for block in blocks:
                    _, out, pk = block.recv()
                    for msg in out:
                        queue = queues.get(msg.dst_shard)
                        if queue is None:
                            raise self._unbuilt(msg)
                        queue.post(msg)
                    peeks.update(pk)
                windows += 1
            for block in blocks:
                block.send(("finish",))
            reports = [r for block in blocks for r in block.recv()[1]]
        finally:
            for block in blocks:
                block.close()
        workers = len(blocks) if mode == "mp" else 0
        return self._assemble(mode, workers, windows, reports, digest)

    # -- single-heap reference ----------------------------------------------
    def run_reference(self) -> ClusterResult:
        """Every shard on one shared engine, no windows — the semantic
        baseline the windowed modes are pinned against."""
        engine = Engine()
        shards = [
            Shard(self.spec, sid, self.build, self.cfg, engine=engine,
                  wire=self.wire, graph=self.graph)
            for sid in self.built_shards()
        ]
        mailboxes = {s.id: s.mailbox for s in shards}
        sent: List[ShardMessage] = []
        try:
            for s in shards:
                s.bridge.enable_direct(mailboxes, sent)
            engine.run()
            digest = MessageDigest()
            for msg in sorted(sent, key=lambda m: m.merge_key):
                if msg.dst_shard not in mailboxes:
                    raise self._unbuilt(msg)
                digest.update(msg)
            reports = [s.report() for s in shards]
        finally:
            for s in shards:
                s.close()
        return self._assemble("reference", 0, 0, reports, digest)

    # -- assembly ------------------------------------------------------------
    def _assemble(
        self, mode: str, workers: int, windows: int,
        reports: List[dict], digest: MessageDigest,
    ) -> ClusterResult:
        """One :class:`ClusterResult` from the built shards' reports (any
        order), every other shard reporting :meth:`Shard.empty_report`."""
        built = {r["sid"]: r for r in reports}
        reports = [
            built.get(sid) or Shard.empty_report(sid)
            for sid in range(self.spec.n_nodes)
        ]
        stuck = [r["sid"] for r in reports if not r["done"]]
        if stuck:
            detail = "; ".join(
                f"shard {r['sid']}: {r['unmatched'][0]} unread arrival(s), "
                f"{r['unmatched'][1]} parked recv(s)"
                for r in reports if any(r["unmatched"])
            )
            raise ClusterError(
                f"windows drained but shard(s) {stuck} never finished "
                f"(cross-shard deadlock?); {detail or 'no parked recvs'}"
            )
        bytes_by_class: Dict[str, int] = {}
        for r in reports:
            for cls, n in r["bytes_by_class"].items():
                bytes_by_class[cls] = bytes_by_class.get(cls, 0) + n
        per_shard = [r["events_popped"] for r in reports]
        reference = mode == "reference"
        return ClusterResult(
            mode=mode,
            machine=self.spec.name,
            workload=self.workload_name,
            shards=len(reports),
            workers=workers,
            windows=windows,
            messages=digest.count,
            msg_digest=digest.hexdigest(),
            # Reference shards share one engine: each built one reports
            # its total, and an unbuilt one reports 0.
            events_popped=max(per_shard, default=0) if reference else sum(per_shard),
            per_shard_popped=None if reference else per_shard,
            step_digests=(
                None if reference else {r["sid"]: r["step_digest"] for r in reports}
            ),
            results={r["sid"]: r["results"] for r in reports},
            t_end=max(r["t_end"] for r in reports),
            bytes_by_class=bytes_by_class,
            events_graphed=sum(r["events_graphed"] for r in reports),
            graph_launches=sum(r["graph_launches"] for r in reports),
        )
