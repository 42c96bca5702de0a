"""Schedule generators: NCCL-style per-step logs and LLM training patterns.

Two frontends that produce validated :class:`~repro.workload.replay.
Schedule` objects ready to replay or serialize:

* :func:`parse_nccl_log` ingests the per-rank communication log format
  collective tracers dump (one op per line, ``key=value`` fields);
* :func:`llm_schedule` synthesizes the canonical 3D-parallel LLM
  training pattern — tensor-parallel allreduces inside every layer,
  pipeline-parallel activation/gradient point-to-points between stages,
  and the end-of-step data-parallel gradient allreduce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.workload.replay import ReplayError, Schedule, Step

# --------------------------------------------------------------------------
# NCCL-style per-step logs
# --------------------------------------------------------------------------
#
#   <rank> AllReduce bytes=N [group=0,1,2,3] [class=dp]
#   <rank> Send peer=P bytes=N [tag=T] [class=...]
#   <rank> Recv peer=P [bytes=N] [tag=T]
#   <rank> Broadcast root=R bytes=N [group=...]
#   <rank> Compute us=X
#
# '#' starts a comment; blank lines are skipped.

_NCCL_OPS = {"allreduce", "send", "recv", "broadcast", "compute"}
_INT_FIELDS = {"bytes", "peer", "root"}


def _parse_kv(token: str, source: str, lineno: int) -> Tuple[str, str]:
    if "=" not in token:
        raise ReplayError(
            f"{source}:{lineno}: expected key=value token, got {token!r}"
        )
    key, value = token.split("=", 1)
    return key, value


def parse_nccl_log(text: str, source: str = "<nccl-log>",
                   name: str = "nccl-log") -> Schedule:
    """Parse an NCCL-style per-step log into a replay schedule."""
    steps: List[Step] = []
    max_rank = -1
    # Broadcasts lower to sends/recvs.  Tags pair by per-(rank, root)
    # occurrence: every rank's k-th Broadcast line with root R belongs to
    # the same logical collective, mirroring the per-rank log order.
    bcast_seen: Dict[Tuple[int, int], int] = {}
    bcast_recvs: Dict[str, int] = {}  # tag -> non-root lines logging it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ReplayError(
                f"{source}:{lineno}: expected '<rank> <Op> key=value...', got {line!r}"
            )
        try:
            rank = int(tokens[0])
        except ValueError:
            raise ReplayError(
                f"{source}:{lineno}: first token must be the rank, got {tokens[0]!r}"
            ) from None
        op = tokens[1].lower()
        if op not in _NCCL_OPS:
            raise ReplayError(
                f"{source}:{lineno}: unknown op {tokens[1]!r}; known: "
                f"{', '.join(sorted(_NCCL_OPS))}"
            )
        fields: Dict[str, object] = {}
        for token in tokens[2:]:
            key, value = _parse_kv(token, source, lineno)
            if key in fields:
                raise ReplayError(f"{source}:{lineno}: key {key!r} given twice")
            if key in _INT_FIELDS:
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ReplayError(
                        f"{source}:{lineno}: field {key!r} must be an "
                        f"integer, got {value!r}"
                    ) from None
            elif key == "us":
                try:
                    fields[key] = float(value)
                except ValueError:
                    raise ReplayError(
                        f"{source}:{lineno}: field 'us' must be a number, "
                        f"got {value!r}"
                    ) from None
            elif key == "group":
                try:
                    fields[key] = [int(g) for g in value.split(",") if g]
                except ValueError:
                    raise ReplayError(
                        f"{source}:{lineno}: field 'group' must be "
                        f"comma-separated ranks, got {value!r}"
                    ) from None
            else:
                fields[key] = value
        max_rank = max(max_rank, rank)

        if op == "compute":
            if "us" not in fields:
                raise ReplayError(f"{source}:{lineno}: Compute needs us=<number>")
            steps.append(Step(rank, "compute", lineno, {"us": fields["us"]}))
        elif op in ("send", "recv"):
            if "peer" not in fields:
                raise ReplayError(f"{source}:{lineno}: {tokens[1]} needs peer=<rank>")
            if op == "send" and "bytes" not in fields:
                raise ReplayError(f"{source}:{lineno}: Send needs bytes=<N>")
            steps.append(Step(rank, op, lineno, fields))
        elif op == "allreduce":
            if "bytes" not in fields:
                raise ReplayError(f"{source}:{lineno}: AllReduce needs bytes=<N>")
            steps.append(Step(rank, "allreduce", lineno, fields))
        elif op == "broadcast":
            if "root" not in fields or "bytes" not in fields:
                raise ReplayError(
                    f"{source}:{lineno}: Broadcast needs root=<rank> bytes=<N>"
                )
            root = fields["root"]
            members = fields.get("group")
            occ = bcast_seen.get((rank, root), 0)
            bcast_seen[(rank, root)] = occ + 1
            tag = f"bcast.{root}.{occ}"
            cls = fields.get("class", "broadcast")
            if rank == root:
                targets = members if members is not None else None
                # Root emits one send per (eventual) member; non-root lines
                # supply the recvs, so fan-out follows the log's own ranks.
                steps.append(Step(rank, "_bcast_root", lineno, {
                    "bytes": fields["bytes"], "tag": tag, "class": cls,
                    "group": targets,
                }))
            else:
                bcast_recvs[tag] = bcast_recvs.get(tag, 0) + 1
                steps.append(Step(rank, "recv", lineno, {
                    "peer": root, "bytes": fields["bytes"], "tag": tag,
                }))
    if max_rank < 0:
        raise ReplayError(f"{source}:1: empty log: no steps found")
    ranks = max_rank + 1

    # Expand broadcast roots now that the rank count is known.
    expanded: List[Step] = []
    for s in steps:
        if s.op != "_bcast_root":
            expanded.append(s)
            continue
        members = s.fields["group"]
        logged = bcast_recvs.get(s.fields["tag"], 0)
        if members is None and logged < ranks - 1:
            # Checked before fanning out: one stray high rank must not
            # make the root allocate a send to every rank below it.
            raise ReplayError(
                f"{source}:{s.line}: Broadcast root={s.rank} reaches {ranks - 1} "
                f"rank(s) but only {logged} log a matching Broadcast line"
            )
        targets = [r for r in (members if members is not None else range(ranks))
                   if r != s.rank]
        for t in targets:
            expanded.append(Step(s.rank, "send", s.line, {
                "peer": t, "bytes": s.fields["bytes"],
                "tag": s.fields["tag"], "class": s.fields["class"],
            }))
    return Schedule(ranks=ranks, steps=expanded, name=name, source=source)


# --------------------------------------------------------------------------
# LLM 3D-parallel training pattern
# --------------------------------------------------------------------------

def llm_schedule(
    dp: int = 2,
    tp: int = 2,
    pp: int = 2,
    layers: int = 4,
    hidden: int = 1024,
    seq: int = 512,
    microbatches: int = 2,
    steps: int = 1,
    dtype_bytes: int = 2,
    compute_us_per_layer: float = 50.0,
    name: Optional[str] = None,
) -> Schedule:
    """Synthesize a (dp × tp × pp)-parallel training step schedule.

    Rank layout: ``rank = tp_i + tp * (dp_i + dp * pp_i)`` — tensor
    groups innermost (they allreduce every layer), pipeline stages
    outermost (they exchange activations/gradients).  Per microbatch,
    each stage runs its layers forward (compute + tensor-parallel
    allreduce of the ``seq × hidden`` activation), ships activations to
    the next stage, then mirrors the pattern backward with gradients;
    each optimizer step ends with the data-parallel gradient allreduce
    (``layers × hidden² / tp`` bytes per rank) and a global barrier.
    """
    for label, v in (("dp", dp), ("tp", tp), ("pp", pp), ("layers", layers),
                     ("hidden", hidden), ("seq", seq),
                     ("microbatches", microbatches), ("steps", steps),
                     ("dtype_bytes", dtype_bytes)):
        if not isinstance(v, int) or v < 1:
            raise ReplayError(f"llm_schedule: {label} must be a positive integer, got {v!r}")
    ranks = dp * tp * pp
    layers_per_stage = max(layers // pp, 1)
    act_bytes = seq * hidden * dtype_bytes
    grad_bytes = layers_per_stage * hidden * hidden * dtype_bytes // tp

    def rank_of(tp_i: int, dp_i: int, pp_i: int) -> int:
        return tp_i + tp * (dp_i + dp * pp_i)

    out: List[Step] = []

    def add(rank: int, op: str, **fields) -> None:
        out.append(Step(rank, op, len(out) + 2, fields))

    for step in range(steps):
        for mb in range(microbatches):
            # forward
            for pp_i in range(pp):
                for dp_i in range(dp):
                    tp_group = [rank_of(t, dp_i, pp_i) for t in range(tp)]
                    for tp_i in range(tp):
                        r = rank_of(tp_i, dp_i, pp_i)
                        for _layer in range(layers_per_stage):
                            add(r, "compute", us=compute_us_per_layer)
                            if tp > 1:
                                add(r, "allreduce", bytes=act_bytes,
                                    group=sorted(tp_group), **{"class": "tp-allreduce"})
                        if pp_i + 1 < pp:
                            nxt = rank_of(tp_i, dp_i, pp_i + 1)
                            tag = f"act.s{step}.m{mb}.p{pp_i}"
                            add(r, "send", peer=nxt, bytes=act_bytes,
                                tag=tag, **{"class": "pp-activation"})
                        if pp_i > 0:
                            prev = rank_of(tp_i, dp_i, pp_i - 1)
                            tag = f"act.s{step}.m{mb}.p{pp_i - 1}"
                            add(r, "recv", peer=prev, tag=tag)
            # backward (stages reversed, gradients flow down)
            for pp_i in reversed(range(pp)):
                for dp_i in range(dp):
                    tp_group = [rank_of(t, dp_i, pp_i) for t in range(tp)]
                    for tp_i in range(tp):
                        r = rank_of(tp_i, dp_i, pp_i)
                        for _layer in range(layers_per_stage):
                            add(r, "compute", us=2.0 * compute_us_per_layer)
                            if tp > 1:
                                add(r, "allreduce", bytes=act_bytes,
                                    group=sorted(tp_group), **{"class": "tp-allreduce"})
                        if pp_i > 0:
                            prev = rank_of(tp_i, dp_i, pp_i - 1)
                            tag = f"grad.s{step}.m{mb}.p{pp_i}"
                            add(r, "send", peer=prev, bytes=act_bytes,
                                tag=tag, **{"class": "pp-gradient"})
                        if pp_i + 1 < pp:
                            nxt = rank_of(tp_i, dp_i, pp_i + 1)
                            tag = f"grad.s{step}.m{mb}.p{pp_i + 1}"
                            add(r, "recv", peer=nxt, tag=tag)
        # optimizer step: data-parallel gradient allreduce + barrier
        if dp > 1 and grad_bytes >= 1:
            for pp_i in range(pp):
                for tp_i in range(tp):
                    dp_group = sorted(rank_of(tp_i, d, pp_i) for d in range(dp))
                    for dp_i in range(dp):
                        add(rank_of(tp_i, dp_i, pp_i), "allreduce",
                            bytes=grad_bytes, group=dp_group,
                            **{"class": "dp-allreduce"})
        for r in range(ranks):
            add(r, "barrier")

    label = name or f"llm-dp{dp}-tp{tp}-pp{pp}"
    return Schedule(ranks=ranks, steps=out, name=label, source=f"<{label}>")


# --------------------------------------------------------------------------
# Jacobi halo-exchange pattern
# --------------------------------------------------------------------------

def jacobi_schedule(
    py: int = 4,
    px: int = 2,
    iters: int = 10,
    halo_bytes: int = 64 * 1024,
    compute_us: float = 80.0,
    name: Optional[str] = None,
) -> Schedule:
    """Synthesize the Jacobi solver's iteration pattern on a py × px grid.

    Each of the ``py * px`` ranks runs ``iters`` iterations of: stencil
    compute, one halo send per neighbour (north/south/east/west, tagged
    by the direction the message travels), then the matching receives.
    The same four channels repeat every iteration, which is exactly the
    shape the dataplane's capture plan cache and graph replay amortize.
    """
    for label_, v in (("py", py), ("px", px), ("iters", iters),
                      ("halo_bytes", halo_bytes)):
        if not isinstance(v, int) or v < 1:
            raise ReplayError(
                f"jacobi_schedule: {label_} must be a positive integer, got {v!r}"
            )
    ranks = py * px
    # Direction codes and their reverses (matches repro.apps.jacobi).
    north, south, east, west = 0, 1, 2, 3
    opposite = {north: south, south: north, east: west, west: east}

    def neighbours(r: int):
        ry, rx = divmod(r, px)
        out_ = {}
        if ry > 0:
            out_[north] = (ry - 1) * px + rx
        if ry < py - 1:
            out_[south] = (ry + 1) * px + rx
        if rx < px - 1:
            out_[east] = ry * px + (rx + 1)
        if rx > 0:
            out_[west] = ry * px + (rx - 1)
        return out_

    out: List[Step] = []

    def add(rank: int, op: str, **fields) -> None:
        out.append(Step(rank, op, len(out) + 2, fields))

    for _it in range(iters):
        for r in range(ranks):
            add(r, "compute", us=compute_us)
        # All sends of the iteration precede all receives so every recv's
        # matching send occurrence sits at an earlier schedule line.
        for r in range(ranks):
            for d in sorted(neighbours(r)):
                add(r, "send", peer=neighbours(r)[d], bytes=halo_bytes,
                    tag=f"halo.{d}", **{"class": "halo"})
        for r in range(ranks):
            for d in sorted(neighbours(r)):
                add(r, "recv", peer=neighbours(r)[d], tag=f"halo.{opposite[d]}")

    label = name or f"jacobi-{py}x{px}"
    return Schedule(ranks=ranks, steps=out, name=label, source=f"<{label}>")


# --------------------------------------------------------------------------
# parameter-server training pattern
# --------------------------------------------------------------------------

def parameter_server_schedule(
    workers: int = 4,
    servers: int = 2,
    steps: int = 2,
    grad_bytes: int = 1024 * 1024,
    compute_us: float = 120.0,
    update_us: float = 40.0,
    name: Optional[str] = None,
) -> Schedule:
    """Synthesize the classic parameter-server training loop.

    Rank layout: servers first (``0 .. servers-1``), then workers.  Per
    optimizer step every worker computes its gradient, *pushes* one
    even shard of it to each server (tagged per step and worker, so
    pushes never cross steps), the servers apply the update, and every
    worker *pulls* its refreshed parameter shards back.  The fan-in at
    the servers is the pattern's signature hotspot — the reason this
    generator exists as a congestion-policy exhibit.
    """
    for label_, v in (("workers", workers), ("servers", servers),
                      ("steps", steps), ("grad_bytes", grad_bytes)):
        if not isinstance(v, int) or v < 1:
            raise ReplayError(
                f"parameter_server_schedule: {label_} must be a positive "
                f"integer, got {v!r}"
            )
    if grad_bytes < servers:
        raise ReplayError(
            f"parameter_server_schedule: grad_bytes={grad_bytes} cannot "
            f"shard across {servers} servers"
        )
    ranks = servers + workers
    shard = grad_bytes // servers
    # The first server's shard absorbs the remainder, so every step moves
    # exactly grad_bytes per worker in each direction.
    first_shard = shard + (grad_bytes - shard * servers)

    out: List[Step] = []

    def add(rank: int, op: str, **fields) -> None:
        out.append(Step(rank, op, len(out) + 2, fields))

    for step in range(steps):
        # Workers compute, then push gradient shards (all sends of the
        # phase precede the servers' receives).
        for w in range(workers):
            add(servers + w, "compute", us=compute_us)
        for w in range(workers):
            for s in range(servers):
                add(servers + w, "send", peer=s,
                    bytes=first_shard if s == 0 else shard,
                    tag=f"push.s{step}.w{w}", **{"class": "ps-push"})
        for s in range(servers):
            for w in range(workers):
                add(s, "recv", peer=servers + w, tag=f"push.s{step}.w{w}")
        # Servers apply the update, then fan the fresh shards back out.
        for s in range(servers):
            add(s, "compute", us=update_us)
        for s in range(servers):
            for w in range(workers):
                add(s, "send", peer=servers + w,
                    bytes=first_shard if s == 0 else shard,
                    tag=f"pull.s{step}.w{w}", **{"class": "ps-pull"})
        for w in range(workers):
            for s in range(servers):
                add(servers + w, "recv", peer=s, tag=f"pull.s{step}.w{w}")

    label = name or f"ps-w{workers}-s{servers}"
    return Schedule(ranks=ranks, steps=out, name=label, source=f"<{label}>")


# --------------------------------------------------------------------------
# expert-parallel (MoE) all-to-all pattern
# --------------------------------------------------------------------------

def expert_parallel_schedule(
    ranks: int = 8,
    steps: int = 2,
    token_bytes: int = 256 * 1024,
    expert_us: float = 90.0,
    router_us: float = 30.0,
    name: Optional[str] = None,
) -> Schedule:
    """Synthesize the Mixture-of-Experts dispatch/combine pattern.

    Per step every rank routes its tokens (compute), *dispatches*
    ``token_bytes`` to every other rank's experts (a full all-to-all),
    runs its expert layer, and *combines* the processed tokens back with
    the mirror all-to-all.  Each phase's sends precede its receives and
    tags carry (step, sender), so the two all-to-alls of one step — and
    neighbouring steps — cannot cross-match.
    """
    for label_, v in (("ranks", ranks), ("steps", steps),
                      ("token_bytes", token_bytes)):
        if not isinstance(v, int) or v < 1:
            raise ReplayError(
                f"expert_parallel_schedule: {label_} must be a positive "
                f"integer, got {v!r}"
            )
    if ranks < 2:
        raise ReplayError(
            f"expert_parallel_schedule: ranks must be >= 2, got {ranks}"
        )

    out: List[Step] = []

    def add(rank: int, op: str, **fields) -> None:
        out.append(Step(rank, op, len(out) + 2, fields))

    def all_to_all(step: int, phase: str, cls: str) -> None:
        for r in range(ranks):
            for peer in range(ranks):
                if peer != r:
                    add(r, "send", peer=peer, bytes=token_bytes,
                        tag=f"{phase}.s{step}.r{r}", **{"class": cls})
        for r in range(ranks):
            for peer in range(ranks):
                if peer != r:
                    add(r, "recv", peer=peer, tag=f"{phase}.s{step}.r{peer}")

    for step in range(steps):
        for r in range(ranks):
            add(r, "compute", us=router_us)
        all_to_all(step, "disp", "moe-dispatch")
        for r in range(ranks):
            add(r, "compute", us=expert_us)
        all_to_all(step, "comb", "moe-combine")

    label = name or f"moe-{ranks}r"
    return Schedule(ranks=ranks, steps=out, name=label, source=f"<{label}>")
