"""ShardedExecutor: shard blocks on worker processes, one pipe trip per window.

The coordinator runs *exactly* the sequential driver's loop — same
``nxt`` computation, same driver-side :class:`WindowQueue` batches, same
ascending-shard digest — but each window's shard work is fanned out to
``N`` forked workers holding contiguous shard blocks.  Because the
batches (and therefore each shard engine's injection schedule) are
computed centrally, the per-shard step streams are bit-identical to the
sequential run for every worker count, including ``--shards 1``.

Protocol (one round trip per window, messages are plain tuples):

====================================  =======================================
coordinator -> worker                 worker -> coordinator
====================================  =======================================
(build happens at fork)               ``("ready", {sid: peek})``
``("run", horizon, {sid: batch})``    ``("out", [ShardMessage], {sid: peek})``
``("finish",)``                       ``("result", [shard dicts])``
``("stop",)``                         (exit)
(any request, on worker crash)        ``("error", traceback_text)``
====================================  =======================================

Worker engine statistics never touch the coordinator's module
:data:`~repro.sim.engine.STATS` implicitly; each shard's counter
snapshot comes back in its result dict and is absorbed in ascending
shard-id order, so the aggregate stream is reproducible.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.shard.mailbox import WindowQueue
from repro.shard.message import MessageDigest, ShardMessage
from repro.shard.shard import Shard
from repro.sim.engine import STATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.cluster import ClusterJob, ClusterResult


def _shard_blocks(n_shards: int, workers: int) -> List[List[int]]:
    """Contiguous shard-id blocks, sizes differing by at most one."""
    base, extra = divmod(n_shards, workers)
    blocks, start = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


def _worker_main(conn, job: "ClusterJob", sids: List[int]) -> None:
    """Worker loop: build the shard block, then serve window requests."""
    try:
        shards: Dict[int, Shard] = {
            sid: Shard(
                job.spec, sid, job.build, job.cfg,
                wire=job.wire, collect_steps=job.collect_steps, graph=job.graph,
            )
            for sid in sids
        }
        conn.send(("ready", {sid: shards[sid].next_time() for sid in sids}))
        while True:
            req = conn.recv()
            kind = req[0]
            if kind == "run":
                _, horizon, batches = req
                outs: List[ShardMessage] = []
                for sid in sids:  # ascending: matches the sequential driver
                    outs.extend(
                        shards[sid].step_window(horizon, batches.get(sid, []))
                    )
                conn.send(
                    ("out", outs, {sid: shards[sid].next_time() for sid in sids})
                )
            elif kind == "finish":
                conn.send(("result", [
                    {
                        "sid": sid,
                        "done": s.done,
                        "results": s.results() if s.done else None,
                        "unmatched": s.mailbox.unmatched(),
                        "events_popped": s.engine.events_popped,
                        "snapshot": s.stats_snapshot(),
                        "step_digest": s.step_digest(),
                        "t_end": s.busy_time(),
                        "bytes_by_class": s.bridge.bytes_by_class,
                        "graph_launches": s.graph_launches(),
                    }
                    for sid, s in sorted(shards.items())
                ]))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown request {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        conn.close()


class ShardedExecutor:
    """Drive a :class:`~repro.shard.cluster.ClusterJob` over worker processes."""

    def __init__(self, job: "ClusterJob", workers: int) -> None:
        from repro.shard.cluster import ClusterError

        if workers < 1:
            raise ClusterError(f"workers must be >= 1, got {workers}")
        self.job = job
        # More workers than shards would fork idle processes.
        self.workers = min(workers, job.spec.n_nodes)

    def run(self) -> "ClusterResult":
        from repro.shard.cluster import ClusterError, ClusterResult

        job = self.job
        n = job.spec.n_nodes
        # fork: workers inherit the job (spec, workload build fn, cfg)
        # without a pickle round-trip; only window traffic crosses pipes.
        ctx = multiprocessing.get_context("fork")
        blocks = _shard_blocks(n, self.workers)
        conns: List[Tuple] = []   # (parent_conn, sids)
        procs = []
        try:
            for sids in blocks:
                parent, child = ctx.Pipe()
                p = ctx.Process(
                    target=_worker_main, args=(child, job, sids), daemon=True
                )
                p.start()
                child.close()
                conns.append((parent, sids))
                procs.append(p)

            peeks: Dict[int, float] = {}
            for parent, _sids in conns:
                peeks.update(self._expect(parent, "ready")[1])

            queues = [WindowQueue() for _ in range(n)]
            digest = MessageDigest()
            windows = 0
            lookahead = job.lookahead
            while True:
                nxt = min(
                    min(peeks.values()),
                    min(q.next_deliver() for q in queues),
                )
                if nxt == float("inf"):
                    break
                horizon = nxt + lookahead
                batches = [q.take(horizon) for q in queues]
                # Same cross-queue merge order as the sequential driver.
                for msg in sorted(
                    (m for batch in batches for m in batch),
                    key=lambda m: m.merge_key,
                ):
                    digest.update(msg)
                for parent, sids in conns:
                    parent.send(("run", horizon, {
                        sid: batches[sid] for sid in sids if batches[sid]
                    }))
                for parent, _sids in conns:
                    _, outs, pk = self._expect(parent, "out")
                    for msg in outs:
                        queues[msg.dst_shard].post(msg)
                    peeks.update(pk)
                windows += 1

            for parent, _sids in conns:
                parent.send(("finish",))
            shard_info: Dict[int, dict] = {}
            for parent, _sids in conns:
                for info in self._expect(parent, "result")[1]:
                    shard_info[info["sid"]] = info
            for parent, _sids in conns:
                parent.send(("stop",))
        finally:
            for parent, _sids in conns:
                parent.close()
            for p in procs:
                p.join(timeout=10)
                if p.is_alive():  # pragma: no cover - hung worker
                    p.terminate()
                    p.join()

        stuck = [sid for sid, info in sorted(shard_info.items()) if not info["done"]]
        if stuck:
            detail = "; ".join(
                f"shard {sid}: {info['unmatched'][0]} unread arrival(s), "
                f"{info['unmatched'][1]} parked recv(s)"
                for sid, info in sorted(shard_info.items())
                if info["unmatched"] != (0, 0)
            )
            raise ClusterError(
                f"windows drained but shard(s) {stuck} never finished "
                f"(cross-shard deadlock?); {detail or 'no parked recvs'}"
            )

        # Deterministic stats merge: ascending shard id (satellite #1).
        for sid in sorted(shard_info):
            STATS.absorb(shard_info[sid]["snapshot"])

        bytes_by_class: Dict[str, int] = {}
        for sid in sorted(shard_info):
            for cls, nb in shard_info[sid]["bytes_by_class"].items():
                bytes_by_class[cls] = bytes_by_class.get(cls, 0) + nb
        per_shard = [shard_info[sid]["events_popped"] for sid in sorted(shard_info)]
        step_digests = None
        if job.collect_steps:
            step_digests = {
                sid: shard_info[sid]["step_digest"] for sid in sorted(shard_info)
            }
        return ClusterResult(
            mode="mp",
            machine=job.spec.name,
            workload=job.workload_name,
            shards=n,
            workers=len(conns),
            windows=windows,
            messages=digest.count,
            msg_digest=digest.hexdigest(),
            events_popped=sum(per_shard),
            per_shard_popped=per_shard,
            step_digests=step_digests,
            results={sid: shard_info[sid]["results"] for sid in sorted(shard_info)},
            t_end=max(shard_info[sid]["t_end"] for sid in shard_info),
            bytes_by_class=bytes_by_class,
            events_graphed=sum(
                shard_info[sid]["snapshot"].get("events_graphed", 0)
                for sid in sorted(shard_info)
            ),
            graph_launches=sum(
                shard_info[sid].get("graph_launches", 0)
                for sid in sorted(shard_info)
            ),
        )

    @staticmethod
    def _expect(parent, kind: str):
        from repro.shard.cluster import ClusterError

        try:
            msg = parent.recv()
        except EOFError as exc:
            raise ClusterError("worker died without reporting an error") from exc
        if msg[0] == "error":
            raise ClusterError(f"worker failed:\n{msg[1]}")
        if msg[0] != kind:  # pragma: no cover - protocol bug
            raise ClusterError(f"expected {kind!r} reply, got {msg[0]!r}")
        return msg
