"""Trace-replay ingestion: versioned JSONL schedules replayed anywhere.

A replay schedule is a JSONL file — one header line plus one step per
line — describing per-rank communication the way production trace tools
dump it (NCCL per-step logs, LLM training patterns, Chrome traces
exported by :mod:`repro.obs`):

.. code-block:: text

    {"schema": "repro.workload.replay/1", "ranks": 4, "name": "demo"}
    {"rank": 0, "op": "compute", "us": 120.0}
    {"rank": 0, "op": "send", "peer": 1, "bytes": 65536, "class": "pp-activation", "tag": "act"}
    {"rank": 1, "op": "recv", "peer": 0, "bytes": 65536, "tag": "act"}
    {"rank": 0, "op": "allreduce", "bytes": 1048576, "group": [0, 1, 2, 3]}

Step vocabulary (all sizes in bytes, times in microseconds):

``compute``
    Pure busy time on the rank: ``us``.
``send`` / ``recv``
    Two-sided message, matched per ``(sender, receiver, tag)`` channel in
    occurrence order.  ``class`` tags the traffic for the per-class
    ledger; a ``recv`` that states ``bytes`` must agree with its matched
    send.  A ``recv`` may give the wildcard tag ``"*"`` — it matches the
    sender's next unmatched send *regardless of tag*, in schedule order,
    the way lossy NCCL-style logs record arrivals without tags.  A
    (sender, receiver) pair must be all-wildcard or all-tagged: mixing
    the two would make matching ambiguous and is rejected.
``put``
    One-sided write: times the wire like a send, no matching recv.
``partitioned``
    A partitioned send: ``partitions`` chunks of ``bytes`` total; the
    matched ``recv`` completes when every chunk has landed.
``allreduce`` / ``barrier``
    Collective over ``group`` (default: all ranks); every member must
    list the same collective sequence.  Lowered to the 2·(n−1) ring
    reduce-scatter + allgather rounds of
    :func:`~repro.pcoll.ring.ring_allreduce_schedule`, each moving
    ``ceil(bytes/n)`` bytes.  ``barrier`` is an 8-byte allreduce under
    traffic class ``replay-barrier``.
``xfer``
    A raw endpoint-addressed transfer (``src_gpu``/``src_node`` →
    ``dst_gpu``/``dst_node``) — the form :func:`from_chrome` emits when
    ingesting an exported Chrome trace; world-mode only.

Steps may carry an ``id`` and ``deps`` (ids of earlier steps on the same
rank).  Execution is strictly in-order per rank, so deps are validated
documentation: a dep referencing a later or unknown id is an error.

Validation failures raise :class:`ReplayError` with ``file:line:``
prefixes.  Replay is deterministic: the same schedule on the same
machine under the same policy reproduces every byte, timestamp, and
digest — the schedule's SHA-256 is folded into the sweep cache key.

One interpreter, :func:`rank_program`, runs every rank; only its
transport depends on the engine, which the machine shape picks.
Multi-node specs replay under the sharded cluster engine (``shards=N``
fans out workers; results stay bit-identical), whose resident build
(:mod:`repro.shard.replay`) adds cross-shard puts and receives to a
:class:`LocalLink`.  Single-node machines — or schedules with ``xfer``
steps — replay on one engine against the full fabric over a plain
:class:`LocalLink`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.series import Series
from repro.hw.memory import Buffer, MemSpace
from repro.hw.spec.schema import MachineSpec
from repro.units import us
from repro.workload.base import (
    ExecOutcome,
    Workload,
    WorkloadError,
    canonical_json,
    sha256_hex,
)

SCHEMA = "repro.workload.replay/1"

#: Default traffic class for steps that do not tag one.
DEFAULT_CLASS = "replay"
BARRIER_CLASS = "replay-barrier"
BARRIER_BYTES = 8

#: recv-side wildcard tag: match the peer's sends in schedule order.
WILDCARD_TAG = "*"

_P2P_SEND_OPS = ("send", "put", "partitioned")
_COLLECTIVE_OPS = ("allreduce", "barrier")
_OPS = ("compute", "recv", "xfer") + _P2P_SEND_OPS + _COLLECTIVE_OPS


class ReplayError(WorkloadError):
    """A schedule failed validation; message carries ``file:line:``."""


# --------------------------------------------------------------------------
# schedule model + parsing
# --------------------------------------------------------------------------

@dataclass
class Step:
    rank: int
    op: str
    line: int                           # 1-based source line (diagnostics)
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


@dataclass
class Schedule:
    """A replay schedule: header + per-line steps, validated when built.

    Construction raises :class:`ReplayError` (``source:line:``) on any
    invalid step or unmatched channel; the matches it finds are the ones
    :func:`lower` keys its micro-ops by.
    """

    ranks: int
    steps: List[Step]
    name: str = ""
    source: str = "<schedule>"
    _links: List[Optional[tuple]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._links = _validate(self)

    @property
    def digest(self) -> str:
        """Content identity: SHA-256 over the canonical step stream."""
        doc = {
            "schema": SCHEMA,
            "ranks": self.ranks,
            "name": self.name,
            "steps": [
                {"rank": s.rank, "op": s.op, **s.fields} for s in self.steps
            ],
        }
        return sha256_hex(canonical_json(doc))

    def has_op(self, op: str) -> bool:
        return any(s.op == op for s in self.steps)

    def to_jsonl(self) -> str:
        lines = [json.dumps(
            {"schema": SCHEMA, "ranks": self.ranks, "name": self.name},
            sort_keys=True,
        )]
        for s in self.steps:
            lines.append(json.dumps(
                {"rank": s.rank, "op": s.op, **s.fields}, sort_keys=True
            ))
        return "\n".join(lines) + "\n"


def _err(source: str, line: int, msg: str) -> ReplayError:
    return ReplayError(f"{source}:{line}: {msg}")


def _want_int(source: str, line: int, doc: dict, key: str, what: str,
              lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _err(source, line, f"{what}: field {key!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise _err(source, line, f"{what}: field {key!r} must be >= {lo}, got {value}")
    if hi is not None and value >= hi:
        raise _err(source, line, f"{what}: field {key!r} must be < {hi}, got {value}")
    return value


def _endpoint(source: str, line: int, doc: dict, side: str) -> Tuple[str, int]:
    gpu = doc.get(f"{side}_gpu")
    node = doc.get(f"{side}_node")
    if gpu is not None:
        if not isinstance(gpu, int) or isinstance(gpu, bool) or gpu < 0:
            raise _err(source, line, f"xfer: {side}_gpu must be a non-negative integer, got {gpu!r}")
        return ("g", gpu)
    if node is not None:
        if not isinstance(node, int) or isinstance(node, bool) or node < 0:
            raise _err(source, line, f"xfer: {side}_node must be a non-negative integer, got {node!r}")
        return ("h", node)
    raise _err(source, line, f"xfer: needs {side}_gpu or {side}_node")


def parse_jsonl(text: str, source: str = "<schedule>") -> Schedule:
    """Parse + validate one JSONL schedule; raises :class:`ReplayError`."""
    header: Optional[dict] = None
    header_line = 0
    steps: List[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise _err(source, lineno, f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _err(source, lineno, f"expected a JSON object, got {type(doc).__name__}")
        if header is None:
            if "schema" not in doc:
                raise _err(source, lineno, "first line must be the header "
                           f'{{"schema": "{SCHEMA}", "ranks": N}}')
            if doc["schema"] != SCHEMA:
                raise _err(source, lineno,
                           f"unsupported schema {doc['schema']!r} (want {SCHEMA!r})")
            header = doc
            header_line = lineno
            continue
        if "schema" in doc:
            raise _err(source, lineno, "duplicate header line")
        op = doc.get("op")
        if op not in _OPS:
            raise _err(source, lineno,
                       f"unknown op {op!r}; known: {', '.join(_OPS)}")
        rank = doc.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise _err(source, lineno, f"step needs an integer 'rank', got {rank!r}")
        fields = {k: v for k, v in doc.items() if k not in ("rank", "op")}
        steps.append(Step(rank=rank, op=op, line=lineno, fields=fields))
    if header is None:
        raise _err(source, 1, "empty schedule: missing header line")
    ranks = _want_int(source, header_line, header, "ranks", "header", lo=1)
    return Schedule(ranks=ranks, steps=steps, name=str(header.get("name", "")), source=source)


def load_schedule(path: str) -> Schedule:
    with open(path) as fh:
        return parse_jsonl(fh.read(), source=path)


def _validate(sched: Schedule) -> List[Optional[tuple]]:
    """Check every step and match every channel; -> each step's link.

    Links are indexed like ``sched.steps``: a send's ``(channel,
    occurrence)``; a recv's ``(channel, occurrence, matched send step)``
    with its send's channel and occurrence; a multi-rank collective's
    ``(group index, occurrence, members)``; an xfer's ``(src endpoint,
    dst endpoint)``; None for every other step.
    """
    src_name, ranks, steps = sched.source, sched.ranks, sched.steps
    links: List[Optional[tuple]] = [None] * len(steps)
    # Per rank, filled as steps appear: the header's rank count is input.
    ids_seen: Dict[int, set] = defaultdict(set)
    # (sender, receiver, tag) -> [send / recv step indices], occurrence order
    sends: Dict[Tuple[int, int, Any], List[int]] = {}
    recvs: Dict[Tuple[int, int, Any], List[int]] = {}
    # (sender, receiver) -> [send / wildcard recv step indices], schedule order
    pair_sends: Dict[Tuple[int, int], List[int]] = {}
    wilds: Dict[Tuple[int, int], List[int]] = {}
    # group -> index, first seen first; group -> rank -> [(signature, step)]
    gids: Dict[Tuple[int, ...], int] = {}
    colls: Dict[Tuple[int, ...], Dict[int, List[Tuple]]] = {}

    for i, s in enumerate(steps):
        what = f"op {s.op!r}"
        if not 0 <= s.rank < ranks:
            raise _err(src_name, s.line, f"rank {s.rank} out of range (header ranks={ranks})")
        if s.op == "compute":
            dt = s.get("us")
            # The chained comparison also rejects NaN, infinities and
            # integers beyond the float range.
            if not isinstance(dt, (int, float)) or isinstance(dt, bool) \
                    or not 0 <= dt <= sys.float_info.max:
                raise _err(src_name, s.line, f"{what}: field 'us' must be a finite non-negative number, got {dt!r}")
        elif s.op in ("send", "put", "partitioned", "recv"):
            peer = _want_int(src_name, s.line, s.fields, "peer", what, lo=0, hi=ranks)
            if peer == s.rank:
                raise _err(src_name, s.line, f"{what}: peer {peer} is the step's own rank")
            if s.op != "recv" or "bytes" in s.fields:
                _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            if s.op == "partitioned":
                _want_int(src_name, s.line, s.fields, "partitions", what, lo=1)
            tag = s.get("tag", 0)
            if not isinstance(tag, (str, int)) or isinstance(tag, bool):
                raise _err(src_name, s.line, f"{what}: field 'tag' must be a string or integer, got {tag!r}")
            if tag == WILDCARD_TAG and s.op != "recv":
                raise _err(src_name, s.line,
                           f"{what}: the wildcard tag {WILDCARD_TAG!r} is recv-only")
            if s.op == "recv":
                if tag == WILDCARD_TAG:
                    wilds.setdefault((peer, s.rank), []).append(i)
                else:
                    recvs.setdefault((peer, s.rank, tag), []).append(i)
            elif s.op != "put":
                chan = (s.rank, peer, tag)
                links[i] = (chan, len(sends.setdefault(chan, [])))
                sends[chan].append(i)
                pair_sends.setdefault((s.rank, peer), []).append(i)
        elif s.op in _COLLECTIVE_OPS:
            if s.op == "allreduce":
                _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            group = s.get("group")
            if group is not None:
                if not isinstance(group, list) or not group:
                    raise _err(src_name, s.line, f"{what}: field 'group' must be a non-empty list of ranks")
                for g in group:
                    if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < ranks:
                        raise _err(src_name, s.line, f"{what}: group member {g!r} out of range (ranks={ranks})")
                if len(set(group)) != len(group):
                    raise _err(src_name, s.line, f"{what}: group has duplicate members: {group}")
            # All ranks, group-less or listed, are range(ranks): O(1) whatever the header says.
            members = range(ranks) if group is None or len(group) == ranks else tuple(sorted(group))
            if s.rank not in members:
                raise _err(src_name, s.line, f"{what}: rank {s.rank} is not in its own group {list(members)}")
            if len(members) > 1:
                sig = (s.op, s.get("bytes", BARRIER_BYTES), s.get("class"))
                mine = colls.setdefault(members, {}).setdefault(s.rank, [])
                links[i] = (gids.setdefault(members, len(gids)), len(mine), members)
                mine.append((sig, s))
        elif s.op == "xfer":
            _want_int(src_name, s.line, s.fields, "bytes", what, lo=1)
            links[i] = (_endpoint(src_name, s.line, s.fields, "src"),
                        _endpoint(src_name, s.line, s.fields, "dst"))
        cls = s.get("class")
        if cls is not None and not isinstance(cls, str):
            raise _err(src_name, s.line, f"{what}: field 'class' must be a string, got {cls!r}")
        sid = s.get("id")
        if sid is not None:
            if not isinstance(sid, str) or not sid:
                raise _err(src_name, s.line, f"{what}: field 'id' must be a non-empty string")
            if sid in ids_seen[s.rank]:
                raise _err(src_name, s.line, f"{what}: duplicate id {sid!r} on rank {s.rank}")
        deps = s.get("deps")
        if deps is not None:
            if not isinstance(deps, list):
                raise _err(src_name, s.line, f"{what}: field 'deps' must be a list of step ids")
            for dep in deps:
                if not isinstance(dep, str) or dep not in ids_seen[s.rank]:
                    raise _err(
                        src_name, s.line,
                        f"{what}: dep {dep!r} does not name an earlier step of "
                        f"rank {s.rank} (execution is in-order per rank)",
                    )
        if sid is not None:
            ids_seen[s.rank].add(sid)

    def match(sent: List[int], got: List[int], channel: str) -> None:
        """Pair the n-th send with the n-th recv; link the recv to it."""
        for occ, (si, ri) in enumerate(zip(sent, got)):
            snd, rcv = steps[si], steps[ri]
            if "bytes" in rcv.fields and rcv["bytes"] != snd["bytes"]:
                raise _err(
                    src_name, rcv.line,
                    f"{channel} occurrence {occ}: recv states {rcv['bytes']} "
                    f"bytes but the matched send (line {snd.line}) sends {snd['bytes']}",
                )
            links[ri] = links[si] + (snd,)

    # Wildcard matching: pair-wide, in schedule order across all tags.
    for pair in sorted(wilds):
        src_rank, dst_rank = pair
        ref = steps[wilds[pair][0]]
        if any(chan[:2] == pair for chan in recvs):
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank}: wildcard and tagged recvs "
                "mix on the same pair — matching would be ambiguous",
            )
        sent = pair_sends.get(pair, [])
        if len(sent) != len(wilds[pair]):
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank}: {len(sent)} send(s) "
                f"but {len(wilds[pair])} wildcard recv(s) — counts must match "
                "pair-wide",
            )
        match(sent, wilds[pair], f"channel {src_rank}->{dst_rank} wildcard")

    # Two-sided matching: same channel, same count, agreeing sizes.
    for chan in sorted(set(sends) | set(recvs), key=repr):
        src_rank, dst_rank, tag = chan
        if (src_rank, dst_rank) in wilds:
            continue  # consumed by pair-wide wildcard matching above
        ns, nr = len(sends.get(chan, ())), len(recvs.get(chan, ()))
        if ns != nr:
            ref = steps[(sends.get(chan) or recvs.get(chan))[0]]
            raise _err(
                src_name, ref.line,
                f"channel {src_rank}->{dst_rank} tag {tag!r}: {ns} send(s) but "
                f"{nr} recv(s) — two-sided steps must match per channel",
            )
        match(sends[chan], recvs[chan], f"channel {src_rank}->{dst_rank} tag {tag!r}")

    # Collective agreement: every member lists the same sequence.
    for members, by_rank in colls.items():
        n_missing = len(members) - len(by_rank)  # counted: members may be range(10**12)
        if n_missing:
            first = next(r for r in members if r not in by_rank)
            ref = next(iter(by_rank.values()))[0][1]
            group = "of all ranks" if isinstance(members, range) else list(members)
            raise _err(
                src_name, ref.line,
                f"collective group {group}: {n_missing} rank(s) never join, "
                f"the first is rank {first} — every member must list the "
                "same collective sequence",
            )
        counts = {r: len(v) for r, v in by_rank.items()}
        first = by_rank[members[0]]
        for r in members[1:]:
            if counts[r] != counts[members[0]]:
                raise _err(
                    src_name, by_rank[r][0][1].line,
                    f"collective group {list(members)}: rank {members[0]} has "
                    f"{counts[members[0]]} collective step(s) but rank {r} has {counts[r]}",
                )
            for occ, ((sig_a, step_a), (sig_b, step_b)) in enumerate(zip(first, by_rank[r])):
                if sig_a != sig_b:
                    raise _err(
                        src_name, step_b.line,
                        f"collective group {list(members)} occurrence {occ}: "
                        f"rank {r} lists {sig_b} but rank {members[0]} lists "
                        f"{sig_a} (line {step_a.line})",
                    )
    return links


# --------------------------------------------------------------------------
# lowering to per-rank micro-ops
# --------------------------------------------------------------------------
# Micro-ops are plain picklable tuples (the cluster build ships them to
# worker processes):
#   ("compute", dt_seconds)
#   ("send", dst_rank, nbytes, traffic_class, key_or_None)  # key signals recv
#   ("wait", src_rank, key)
#   ("xfer", src_ep, dst_ep, nbytes, traffic_class)         # ep = ("g",i)|("h",i)

def _chunks(send: Step) -> List[int]:
    """A send's non-empty chunk sizes: the remainder goes to the first ones."""
    total = send["bytes"]
    parts = send.get("partitions", 1) if send.op == "partitioned" else 1
    base, rem = divmod(total, parts)
    return [base + (i < rem) for i in range(min(parts, total))]


def lower(sched: Schedule) -> Dict[int, List[tuple]]:
    """Lower the schedule to per-rank micro-op lists (rank r -> GPU r).

    Keys come from the matches :func:`_validate` made when the schedule
    was built: a send's chunks signal ``("p",) + channel + (occurrence,
    chunk)`` and its matched recv waits on the same keys; ring round
    ``rnd`` of a collective signals ``("c", group, occurrence, rnd,
    sender)``.
    """
    from repro.pcoll.ring import ring_allreduce_schedule

    ops: Dict[int, List[tuple]] = {}  # only the ranks that steps name
    for s, link in zip(sched.steps, sched._links):
        out = ops.setdefault(s.rank, [])
        cls = s.get("class") or DEFAULT_CLASS
        if s.op == "compute":
            out.append(("compute", float(s["us"]) * us))
        elif s.op == "put":
            out.append(("send", s["peer"], s["bytes"], cls, None))
        elif s.op in ("send", "partitioned"):
            chan, occ = link
            for i, nbytes in enumerate(_chunks(s)):
                out.append(("send", s["peer"], nbytes, cls, ("p",) + chan + (occ, i)))
        elif s.op == "recv":
            chan, occ, snd = link
            for i in range(len(_chunks(snd))):
                out.append(("wait", s["peer"], ("p",) + chan + (occ, i)))
        elif s.op == "xfer":
            out.append(("xfer", *link, s["bytes"], cls))
        elif link is not None:  # a collective over two or more ranks
            gid, occ, members = link
            if s.op == "barrier":
                nbytes, cls = BARRIER_BYTES, s.get("class") or BARRIER_CLASS
            else:
                nbytes = s["bytes"]
            n = len(members)
            chunk = max((nbytes + n - 1) // n, 1)
            ring = ring_allreduce_schedule(members.index(s.rank), n).steps
            for rnd, step in enumerate(ring):
                right, left = members[step.outgoing[0]], members[step.incoming[0]]
                out.append(("send", right, chunk, cls, ("c", gid, occ, rnd, s.rank)))
                out.append(("wait", left, ("c", gid, occ, rnd, left)))
    return ops


# --------------------------------------------------------------------------
# the rank program and its same-fabric transport
# --------------------------------------------------------------------------

def rank_program(engine, rank: int, ops: List[tuple], link):
    """Interpret one rank's micro-ops over a two-method transport.

    ``link.send(rank, i, src_ep, dst_ep, nbytes, cls, key)`` is a
    generator: it times op ``i``'s transfer, then signals ``key`` (if
    any).  ``link.wait(rank, src_rank, key)`` returns the event that
    ``key``'s send signals.  Returns ``(rank, now)`` after the last op.
    """
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "compute":
            yield op[1]
        elif kind == "send":
            _, dst, nbytes, cls, key = op
            yield from link.send(rank, i, ("g", rank), ("g", dst), nbytes, cls, key)
        elif kind == "wait":
            yield link.wait(rank, op[1], op[2])
        elif kind == "xfer":
            _, src_ep, dst_ep, nbytes, cls = op
            yield from link.send(rank, i, src_ep, dst_ep, nbytes, cls, None)
    return (rank, engine.now)


class LocalLink:
    """Transport between ranks that share one engine and fabric.

    Transfers are ``dataplane.control`` submissions between 1-byte
    virtual anchors (distinct src/dst per endpoint).  Rendezvous is a
    key -> one-shot event board: either side may arrive first, the event
    is created on first touch and succeeded once by the sender, and
    yielding an already-processed event resumes the waiter immediately.
    ``gpu_base`` maps global GPU ids onto ``fabric``'s local ones (a
    shard's fabric numbers its node's GPUs from 0).
    """

    def __init__(self, engine, fabric, gpu_base: int = 0) -> None:
        self.engine = engine
        self.fabric = fabric
        self.gpu_base = gpu_base
        self._anchors: Dict[Tuple[Tuple[str, int], str], Any] = {}
        self._events: Dict[Any, Any] = {}

    def _anchor(self, ep: Tuple[str, int], side: str):
        buf = self._anchors.get((ep, side))
        if buf is None:
            kind, idx = ep
            if kind == "g":
                gpu = idx - self.gpu_base
                buf = Buffer.alloc_virtual(
                    1, np.uint8, MemSpace.DEVICE,
                    node=self.fabric.spec.node_of(gpu), gpu=gpu,
                    label=f"replay.g{idx}.{side}",
                )
            else:
                buf = Buffer.alloc_virtual(
                    1, np.uint8, MemSpace.HOST, node=idx,
                    label=f"replay.h{idx}.{side}",
                )
            self._anchors[(ep, side)] = buf
        return buf

    def _event(self, key):
        ev = self._events.get(key)
        if ev is None:
            ev = self._events[key] = self.engine.event()
        return ev

    def send(self, rank, i, src_ep, dst_ep, nbytes, cls, key):
        yield self.fabric.dataplane.control(
            self._anchor(src_ep, "src"), self._anchor(dst_ep, "dst"),
            nbytes, traffic_class=cls, name=f"replay.g{rank}.{i}",
        )
        if key is not None:
            self._event(key).succeed()

    def wait(self, rank, src_rank, key):
        return self._event(key)


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

class ReplayWorkload(Workload):
    """Replay one validated schedule on any machine."""

    supports_shards = True
    default_machine = "gh200-2x4"

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.name = f"replay:{schedule.name}" if schedule.name else "replay"
        self.defaults = {}

    @classmethod
    def from_file(cls, path: str) -> "ReplayWorkload":
        return cls(load_schedule(path))

    def fingerprint(self, **params: Any) -> dict:
        return {
            "workload": "replay",
            "schedule": self.schedule.digest,
            "params": {**self.defaults, **params},
        }

    def _mode(self, spec) -> str:
        if spec.n_nodes >= 2 and not self.schedule.has_op("xfer"):
            return "cluster"
        return "world"

    def _execute(self, spec: Optional[MachineSpec], shards, **params) -> ExecOutcome:
        sched = self.schedule
        n_gpus = spec.n_gpus
        if sched.ranks > n_gpus:
            raise ReplayError(
                f"{sched.source}: schedule needs {sched.ranks} rank(s) but "
                f"{spec.name} has {n_gpus} GPU(s)"
            )
        ops = lower(sched)
        mode = self._mode(spec)
        if shards is not None and mode != "cluster":
            raise ReplayError(
                f"{sched.source}: shards={shards} needs a multi-node machine "
                "and an xfer-free schedule (single-engine replay is unsharded)"
            )
        if mode == "cluster":
            return self._execute_cluster(spec, ops, shards)
        return self._execute_world(spec, ops)

    def _execute_world(self, spec: MachineSpec, ops) -> ExecOutcome:
        """Replay on one engine against the full fabric.

        Unobserved runs replay as a captured graph: the fabric lives on a
        private :class:`~repro.dataplane.graph.GraphEngine`, the whole run
        is one host graph-launch event, and descriptor plans are cached
        across repeated submissions.  Timestamps and the per-class ledger
        are bit-identical to the eager path; only where the pops are
        counted changes (``events_graphed`` vs ``events_popped``).
        """
        from repro.dataplane.graph import GRAPHS, GraphEngine, launch
        from repro.hw.topology import Fabric
        from repro.sim.engine import Engine, collapsible

        graphs = collapsible()
        engine = GraphEngine() if graphs else Engine()
        fabric = Fabric(engine, spec)
        if graphs:
            fabric.dataplane.enable_plan_cache()
        link = LocalLink(engine, fabric)
        for rank, rank_ops in sorted(ops.items()):
            if rank_ops:
                # (rank, now) feeds cluster results; world mode reads the ledger.
                engine.process(rank_program(engine, rank, rank_ops, link),
                               name=f"replay.r{rank}")
        extra: Dict[str, Any] = {}
        if graphs:
            launch(Engine(), engine, float("inf"))
            GRAPHS.launches += 1
            cache = fabric.dataplane.plan_cache
            extra["graphs"] = {
                "graph_launches": 1,
                "events_graphed": engine.events_popped,
                "captured_plans": cache.misses,
                "replayed_descriptors": cache.hits,
            }
        else:
            engine.run()
        class_bytes = fabric.dataplane.ledger.as_dict()
        t_end = engine.t_busy
        sched = self.schedule
        return ExecOutcome(
            series=self._series(class_bytes, t_end),
            mode="world",
            class_bytes=class_bytes,
            digests={"schedule": sched.digest},
            extra={"t_end": t_end, "ranks": sched.ranks,
                   "steps": len(sched.steps), **extra},
        )

    def _execute_cluster(self, spec, ops, shards) -> ExecOutcome:
        from repro.shard import ClusterJob

        job = ClusterJob(spec, "replay", cfg={"ops": ops})
        result = job.run(workers=shards)
        sig = result.signature()
        series = self._series(
            {cls: {"bytes": b, "transfers": None}
             for cls, b in sig.get("bytes_by_class", {}).items()},
            sig["t_end"],
        )
        digests = {"schedule": self.schedule.digest, "msg": sig["msg_digest"]}
        for shard_id, step_digest in sorted(sig.get("step_digests", {}).items()):
            digests[f"steps_shard{shard_id}"] = step_digest
        return ExecOutcome(
            series=series,
            mode=result.mode,
            class_bytes=sig.get("bytes_by_class", {}),
            digests=digests,
            extra={"signature": sig, "ranks": self.schedule.ranks,
                   "steps": len(self.schedule.steps),
                   "graphs": {"graph_launches": result.graph_launches,
                              "events_graphed": result.events_graphed}},
        )

    def _series(self, class_bytes: dict, t_end: float) -> Series:
        s = Series(
            self.name,
            f"trace replay, {self.schedule.ranks} rank(s), "
            f"{len(self.schedule.steps)} step(s)",
            ["traffic_class", "bytes", "transfers"],
        )
        for cls, row in sorted(class_bytes.items()):
            s.add(traffic_class=cls, bytes=row["bytes"], transfers=row["transfers"])
        s.note(f"t_end={t_end!r}")
        return s


# --------------------------------------------------------------------------
# Chrome-trace ingestion
# --------------------------------------------------------------------------

def from_chrome(trace: dict, name: str = "chrome-ingest") -> Schedule:
    """Build a replay schedule from an exported Chrome trace.

    Reads the ``dataplane`` instants the dataplane emits per accounted
    descriptor (src/dst endpoint, traffic class, wire bytes) and turns
    each into an ``xfer`` step, in timestamp order.  Replaying the result
    reproduces the original run's per-class ledger byte and transfer
    counts on the same machine.  Only unsharded runs round-trip this way:
    bridge-claimed cross-shard descriptors never reach the dataplane
    accounting point.
    """
    source = f"<{name}>"
    raw = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(raw, list):
        raise ReplayError(f"{source}: a Chrome trace is an object with a 'traceEvents' list")

    def bad(index: int, msg: str) -> ReplayError:
        return ReplayError(f"{source}: traceEvents[{index}]: {msg}")

    def count(index: int, args: dict, key: str, lo: int) -> Optional[int]:
        value = args.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)
                                  or value < lo):
            raise bad(index, f"args.{key} must be an integer >= {lo}, got {value!r}")
        return value

    events = []
    for index, ev in enumerate(raw):
        if not isinstance(ev, dict):
            raise bad(index, f"expected a JSON object, got {type(ev).__name__}")
        if ev.get("ph") != "i" or ev.get("cat") != "dataplane":
            continue
        ts, args = ev.get("ts", 0), ev.get("args")
        # ``ts == ts`` rejects NaN, which would make the sort order arbitrary.
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts != ts:
            raise bad(index, f"'ts' must be a number, got {ts!r}")
        if not isinstance(args, dict):
            raise bad(index, f"'args' must be an object, got {args!r}")
        nbytes = count(index, args, "nbytes", 1)
        if nbytes is None:
            raise bad(index, "args.nbytes is missing")
        cls = args.get("cls", DEFAULT_CLASS)
        if cls is not None and not isinstance(cls, str):
            raise bad(index, f"args.cls must be a string, got {cls!r}")
        fields: Dict[str, Any] = {"bytes": nbytes, "class": cls}
        for side in ("src", "dst"):
            gpu = count(index, args, f"{side}_gpu", 0)
            node = count(index, args, f"{side}_node", 0)
            if gpu is not None:
                fields[f"{side}_gpu"] = gpu
            else:
                fields[f"{side}_node"] = node if node is not None else 0
        events.append((ts, fields))
    events.sort(key=lambda ev: ev[0])
    steps = [Step(rank=fields.get("src_gpu", 0), op="xfer", line=i + 2, fields=fields)
             for i, (_, fields) in enumerate(events)]
    max_gpu = max((f[k] for _, f in events for k in ("src_gpu", "dst_gpu") if k in f),
                  default=-1)
    ranks = max(max_gpu + 1, 1)
    return Schedule(ranks=ranks, steps=steps, name=name, source=source)
