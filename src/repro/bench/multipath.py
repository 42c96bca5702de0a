"""Path-policy measurements on raw dataplane transfers.

Isolates the dataplane from the MPI stack: one fresh engine + fabric per
measurement, device-to-device payload descriptors, goodput = bytes /
simulated completion time.  On the GH200 4-GPU NVLink mesh a large D2D
transfer has four link-disjoint routes (the direct NVLink, two two-hop
NVLink detours through the other mesh GPUs, and the C2C host path), so
striping multiplies the aggregate bottleneck bandwidth; small transfers
are overhead-dominated and striping cannot pay for the extra route
latency.  The dynamic-fabric measurements (DESIGN.md §17) add a mid-run
link loss under a plan-cached chunk pipeline and congestion-aware
spreading of concurrent puts.

Each measurement names its own policies (``single`` / ``multi`` /
``congestion``; see :func:`~repro.dataplane.policy.policy_by_name`), so a
run's ``policy`` setting does not change these numbers.
"""

from __future__ import annotations

from repro.dataplane.graph import GRAPHS
from repro.dataplane.plane import FabricFault
from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.spec.schema import MachineSpec
from repro.hw.topology import Fabric
from repro.sim.engine import Engine
from repro.sim.run import run_scope
from repro.units import MiB


def _setup(policy: str, config: MachineSpec, nbytes: int, faults=None):
    """A fresh engine + fabric under ``policy`` and a gpu0 -> gpu1 buffer maker.

    Payload buffers are virtual (zero stride), so GiB-scale points cost
    O(1) host memory.
    """
    with run_scope(policy=policy, faults=faults):
        engine = Engine()
        fabric = Fabric(engine, config)
    n = max(nbytes // 8, 1)  # float64 elements

    def buf(gpu: int) -> Buffer:
        return Buffer.alloc_virtual(
            n, space=MemSpace.DEVICE, node=fabric.spec.node_of(gpu), gpu=gpu
        )

    return engine, fabric, buf


def _run(engine: Engine, body, name: str) -> None:
    done = engine.process(body, name=name)
    engine.run()
    if not done.ok:  # pragma: no cover - surfacing simulation bugs
        raise RuntimeError(f"{name} failed: {done.value!r}")


def measure_stripe_goodput(
    nbytes: int, policy: str = "single", config: MachineSpec = ONE_NODE
) -> dict:
    """One gpu0 -> gpu1 transfer of ``nbytes`` under a path policy.

    Returns goodput plus the stripe count the policy actually used and
    the dataplane ledger snapshot.
    """
    engine, fabric, buf = _setup(policy, config, nbytes)
    src, dst = buf(0), buf(1)
    out = {}

    def proc():
        yield fabric.dataplane.put(src, dst, traffic_class="bench", name="stripe")
        out["elapsed"] = engine.now

    _run(engine, proc(), "stripe_bench")
    return {
        "nbytes": src.nbytes,
        "elapsed_s": out["elapsed"],
        "goodput_Bps": src.nbytes / out["elapsed"],
        "stripes": fabric.dataplane.ledger["bench"].stripes,
        "ledger": fabric.dataplane.ledger.as_dict(),
    }


def _pipelined_chunks(
    policy: str, config: MachineSpec, chunks: int, chunk_bytes: int,
    depth: int, faults=None,
) -> dict:
    """Run ``chunks`` plan-cached D2D puts with ``depth`` in flight.

    One buffer pair is reused for every chunk, so after the first submit
    the plan cache replays the stripe plan; a mid-run fault exercises
    both recovery tiers (queued-stripe re-route and plan re-bind).
    """
    engine, fabric, buf = _setup(policy, config, chunk_bytes, faults)
    dp = fabric.dataplane.enable_plan_cache()
    src, dst = buf(0), buf(1)
    replanned0 = GRAPHS.replanned
    out = {"faulted_chunks": 0}

    def proc():
        in_flight = []
        for _ in range(chunks):
            in_flight.append(dp.put(src, dst, traffic_class="bench", name="chunk"))
            if len(in_flight) >= depth:
                if isinstance((yield in_flight.pop(0)), FabricFault):
                    out["faulted_chunks"] += 1
        for ev in in_flight:
            if isinstance((yield ev), FabricFault):
                out["faulted_chunks"] += 1
        out["elapsed"] = engine.now

    _run(engine, proc(), "chunk_bench")
    return {
        "elapsed_s": out["elapsed"],
        "faulted_chunks": out["faulted_chunks"],
        "reroutes": dp.reroutes,
        "faults": dp.faults,
        "replanned": GRAPHS.replanned - replanned0,
        "plan_hits": dp.plan_cache.hits,
    }


def measure_fault_reroute(
    total_bytes: int = 512 * MiB, chunks: int = 32, depth: int = 4,
    config: MachineSpec = ONE_NODE,
) -> dict:
    """Down the primary NVLink mid-run under a plan-cached chunk pipeline.

    Three timings of the same chunked D2D stream: healthy multipath (lower
    bound), multipath losing ``nvl0->1`` halfway through, and healthy
    single-path (the no-multipath upper bound).  The faulted run recovers
    on both tiers — queued stripes re-route around the dead link and the
    epoch-stale cached plan re-binds — and every chunk still completes.
    """
    chunk_bytes = total_bytes // chunks
    healthy = _pipelined_chunks("multi", config, chunks, chunk_bytes, depth)
    sched = FaultSchedule([FaultEvent(healthy["elapsed_s"] / 2, "nvl0->1", "down")])
    faulted = _pipelined_chunks("multi", config, chunks, chunk_bytes, depth, sched)
    single = _pipelined_chunks("single", config, chunks, chunk_bytes, depth)
    return {
        "healthy_s": healthy["elapsed_s"],
        "faulted_s": faulted["elapsed_s"],
        "single_s": single["elapsed_s"],
        **{k: faulted[k] for k in
           ("reroutes", "faults", "replanned", "faulted_chunks", "plan_hits")},
    }


def measure_congestion_goodput(
    policy: str = "congestion", n_transfers: int = 8, nbytes: int = 16 * MiB,
    config: MachineSpec = ONE_NODE,
) -> dict:
    """``n_transfers`` concurrent gpu0 -> gpu1 puts under one policy.

    Under single-path they all serialize on the direct NVLink port; the
    congestion-aware policy reads the outstanding-bytes signal at submit
    and spreads them over the link-disjoint candidates.
    """
    engine, fabric, buf = _setup(policy, config, nbytes)
    pairs = [(buf(0), buf(1)) for _ in range(n_transfers)]
    out = {}

    def proc():
        events = [
            fabric.dataplane.put(s, d, traffic_class="bench", name=f"x{i}")
            for i, (s, d) in enumerate(pairs)
        ]
        for ev in events:
            yield ev
        out["elapsed"] = engine.now

    _run(engine, proc(), "congestion_bench")
    total = n_transfers * pairs[0][0].nbytes
    return {"elapsed_s": out["elapsed"], "goodput_Bps": total / out["elapsed"]}
