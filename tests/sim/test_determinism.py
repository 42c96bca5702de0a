"""The determinism contract: identical configs replay identical event
streams, guarding the engine's ``(time, priority, seq)`` heap tie-break."""

import hashlib

import numpy as np
import pytest

from repro.cuda.kernel import BlockKernel
from repro.cuda.timing import WorkSpec
from repro.hw.params import ONE_NODE, TestbedConfig
from repro.hw.spec import gh200_spec
from repro.mpi.world import World
from repro.partitioned import device as pdev
from repro.partitioned.aggregation import AggregationSpec, SignalMode
from repro.san import Sanitizer
from repro.sim.run import current, run_scope

from ..conftest import exact_path

WORK = WorkSpec.vector_add()
GRID, BLOCK = 4, 256


def _workload(world):
    """Device-initiated partitioned send: dense same-time event traffic."""
    n = GRID * BLOCK

    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            sbuf = ctx.gpu.alloc(n, fill=1.0)
            sreq = yield from comm.psend_init(sbuf, GRID, dest=1, tag=0)
            yield from sreq.start()
            yield from sreq.pbuf_prepare()
            agg = AggregationSpec(GRID, BLOCK, 1, SignalMode.BLOCK)
            preq = yield from sreq.prequest_create(ctx.gpu, agg=agg)

            def body(blk):
                yield blk.compute(WORK)
                yield pdev.pready(blk, preq)

            yield from ctx.gpu.launch_h(BlockKernel(GRID, BLOCK, body))
            yield from sreq.wait()
        else:
            rbuf = ctx.gpu.alloc(n)
            rreq = yield from comm.precv_init(rbuf, GRID, source=0, tag=0)
            yield from rreq.start()
            yield from rreq.pbuf_prepare()
            yield from rreq.wait()
            assert np.all(rbuf.data == 1.0)

    world.run(main, nprocs=2)


def _step_stream():
    steps = []
    world = World(ONE_NODE)
    world.engine.on_step = lambda t, prio, seq: steps.append((t, prio, seq))
    _workload(world)
    return steps


def test_step_stream_is_reproducible():
    first, second = _step_stream(), _step_stream()
    assert first == second
    assert len(first) > 100


def test_tie_break_is_exercised():
    """Same-time pops must occur, else the (prio, seq) tie-break is dead code."""
    steps = _step_stream()
    times = [t for t, _prio, _seq in steps]
    assert len(set(times)) < len(times)


def test_sanitized_trace_is_byte_identical():
    def trace_bytes():
        with Sanitizer() as san:
            _workload(World(ONE_NODE))
        assert san.report.ok
        return san.trace_bytes()

    first, second = trace_bytes(), trace_bytes()
    assert first == second
    assert len(first) > 0


# Trace digests captured on the seed's hard-coded GH200 fabric, *before*
# the spec/graph-routing refactor.  The spec-built fabric must replay the
# exact same sanitized trace: the GH200 spec is a re-expression of the
# testbed, not a new machine.
_SEED_TRACES = {
    "one-node": "1c2027dffd6568bcd2ed94f2ab11c0c6e5ba3672eb561ad3a3a5f73e5ecb15b9",
    "two-node": "266920291c7279e88a131ad426dab16eef04061f20af149f2ec0d7a681c4ac3e",
}


@pytest.mark.parametrize(
    "config,key",
    [
        (ONE_NODE, "one-node"),
        (TestbedConfig(n_nodes=2, gpus_per_node=1), "two-node"),
        (gh200_spec(1, 4), "one-node"),
        (gh200_spec(2, 1), "two-node"),
    ],
    ids=["legacy-1x4", "legacy-2x1", "spec-1x4", "spec-2x1"],
)
def test_gh200_spec_trace_matches_pre_refactor_seed(config, key):
    """Legacy configs and the equivalent MachineSpecs replay the seed's
    byte-exact sanitized trace for a partitioned ping-pong."""
    with Sanitizer() as san:
        _workload(World(config))
    assert san.report.ok
    digest = hashlib.sha256(san.trace_bytes()).hexdigest()
    assert digest == _SEED_TRACES[key]


# -- the obs bus must be invisible ------------------------------------------
#
# The instrumentation refactor's contract: with a run bus set but *idle*
# (zero subscribers) every hook stays one `is None` test, and even a fully
# subscribed bus must never perturb the simulated timeline.

def test_sanitized_digest_unchanged_with_idle_ambient_bus():
    """A run bus without subscribers leaves engine.obs None; the
    sanitizer (which rides the same bus) still reproduces the seed digest."""
    from repro.obs import bus as obs_bus

    with run_scope(bus=obs_bus.Bus()):
        with Sanitizer() as san:
            world = World(ONE_NODE)
            _workload(world)
    assert san.report.ok
    digest = hashlib.sha256(san.trace_bytes()).hexdigest()
    assert digest == _SEED_TRACES["one-node"]


def test_step_stream_unchanged_with_idle_bus():
    baseline = _step_stream()
    from repro.obs import bus as obs_bus

    with run_scope(bus=obs_bus.Bus()):
        world = World(ONE_NODE)
        assert world.engine.obs is None  # no subscribers: fast path intact
        steps = []
        world.engine.on_step = lambda t, prio, seq: steps.append((t, prio, seq))
        _workload(world)
    assert steps == baseline


def test_step_stream_unchanged_under_full_observation():
    """Subscribing a collector turns every hook on — and must not move a
    single event: observers read the timeline, never shape it."""
    baseline = _step_stream()
    from repro.obs import bus as obs_bus
    from repro.obs.profile import Collector

    bus = obs_bus.Bus()
    collector = Collector()
    bus.subscribe(collector)
    with run_scope(bus=bus):
        world = World(ONE_NODE)
        assert world.engine.obs is bus
        steps = []
        world.engine.on_step = lambda t, prio, seq: steps.append((t, prio, seq))
        _workload(world)
    assert steps == baseline
    cats = {ev.cat for ev in collector.events}
    assert {"engine", "kernel", "link", "pe", "stream", "ucx", "san"} <= cats


# -- coalesced signalling must be invisible ----------------------------------
#
# The wall-clock fast path (DESIGN.md §11) collapses same-instant partition
# waves into aggregate events, but only when nothing observes the run.  The
# contract: unobserved runs land on byte-identical simulated times whether
# the fast path runs or an observer (here an empty run bus) forces the
# exact per-wave path; observed streams are pinned by the tests above.

@pytest.mark.parametrize(
    "grid,model,tps",
    [
        (2048, "progression", 1),
        (4096, "progression", 8),   # multi-transport-partition crossings
        (2048, "kernel_copy", 2),
    ],
    ids=["pe-1tp", "pe-8tp", "kc-2tp"],
)
def test_unobserved_times_equal_with_and_without_coalescing(grid, model, tps):
    """Goodput (a pure function of simulated timestamps) is bit-equal with
    wave coalescing on and off, and the fast path actually engaged."""
    from repro.bench.p2p import measure_p2p_goodput
    from repro.sim.engine import STATS

    STATS.reset()
    fast = measure_p2p_goodput(grid, model, ONE_NODE, tps=tps)
    fast_pops, fast_coalesced = STATS.events_popped, STATS.events_coalesced

    STATS.reset()
    with exact_path():
        exact = measure_p2p_goodput(grid, model, ONE_NODE, tps=tps)

    assert fast == exact  # bit-equal simulated times, not approximately
    assert fast_coalesced > 0, "fast path never engaged"
    assert STATS.events_coalesced == 0, "an observed run still coalesced"
    assert fast_pops < STATS.events_popped


def test_idle_hook_overhead_is_bounded():
    """Micro-benchmark: with no run bus, a sanitizer hook
    (``repro.san.record.mark``: one run lookup + is-None test) stays in
    the tens-of-nanoseconds range.  The bound is generous to survive
    loaded CI boxes."""
    from time import perf_counter

    from repro.san.record import mark

    assert current().bus is None
    n = 100_000
    t0 = perf_counter()
    for _ in range(n):
        mark("idle")
    per_call = (perf_counter() - t0) / n
    assert per_call < 5e-6, f"idle hook costs {per_call * 1e9:.0f}ns/call"
