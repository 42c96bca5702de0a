"""A shard's step digest is formatted per window but hashes the same bytes.

A shard's engine logs each popped raw ``(time, priority, seq)`` key, and
``Shard._flush_steps`` formats one window's keys in one pass, reusing
the ``float.hex()`` text of a repeated time, and feeds them to SHA-256 in
one update.  These tests read every raw key before the shard flushes it,
hash each one on its own with an independent formatter, and require the
two digests to agree, in eager and graph mode, sequentially and under
``--shards 2`` (where the shards live in forked workers, so each writes
its reference digest to a file the test reads back).
"""

import hashlib

import pytest

from repro.hw.spec.generators import resolve_machine
from repro.shard import ClusterJob, Shard
from repro.shard.shard import EMPTY_STEP_DIGEST
from repro.sim.engine import Engine
from repro.sim.process import ProcessFailed
from repro.workload.generators import jacobi_schedule
from repro.workload.replay import ReplayWorkload


def _key_text(time, priority, seq):
    return f"{time.hex()}|{priority}|{seq};".encode()


def _wrap_steps(shard, record):
    """Pass each raw key of the shard's step log to ``record(key)``, in pop
    order, just before the shard hashes it."""
    keys = shard.run_engine.steps
    assert keys is not None, "shard logs no steps"
    flush = shard._flush_steps

    def wrapped():
        for key in keys:
            record(key)
        flush()

    shard._flush_steps = wrapped


@pytest.fixture
def reference_digests(monkeypatch, tmp_path):
    """Every Shard built from now on also hashes its pops one by one;
    ``report()`` leaves that digest in ``tmp_path/<sid>``."""
    init, report = Shard.__init__, Shard.report
    refs = {}

    def patched_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ref = refs[self] = hashlib.sha256()
        _wrap_steps(self, lambda key: ref.update(_key_text(*key)))

    def patched_report(self):
        rec = report(self)
        (tmp_path / str(self.id)).write_text(refs[self].hexdigest())
        return rec

    monkeypatch.setattr(Shard, "__init__", patched_init)
    monkeypatch.setattr(Shard, "report", patched_report)

    def read(n_shards):
        return {sid: (tmp_path / str(sid)).read_text() for sid in range(n_shards)}

    return read


#: Eager cluster workloads decimated to run 17 and 59 windows.
EAGER = {
    "halo": {"iters": 16, "chunks": 2, "chunk_bytes": 1 << 16, "face_bytes": 1 << 16},
    "allreduce-node": {"iters": 2, "elems": 256, "ring_bytes": 1 << 12},
}


@pytest.mark.parametrize("workers", [None, 2], ids=["sequential", "shards2"])
@pytest.mark.parametrize("workload", sorted(EAGER))
def test_eager_digest_matches_per_pop_hash(reference_digests, workload, workers):
    spec = resolve_machine("fat-tree-32-r2-l2")
    job = ClusterJob(spec, workload, cfg=EAGER[workload])
    result = job.run(workers=workers)
    assert result.windows >= 10 and result.events_graphed == 0
    assert result.step_digests == reference_digests(spec.n_nodes)


@pytest.mark.parametrize("shards", [None, 2], ids=["sequential", "shards2"])
def test_graph_replay_digest_matches_per_pop_hash(reference_digests, shards):
    res = ReplayWorkload(jacobi_schedule(py=4, px=2, iters=10)).run(
        machine="gh200-2x4", shards=shards,
    )
    assert res.extra["graphs"]["graph_launches"] >= 10
    assert res.extra["graphs"]["events_graphed"] > 0
    steps = res.extra["signature"]["step_digests"]
    assert steps == reference_digests(2)


def test_stuck_shard_report_flushes_its_partial_window():
    """A window cut short by a crash is hashed by ``report()``."""

    def build(shard, cfg):
        def ticker():
            for _ in range(20):
                yield shard.engine.timeout(1e-6)
            raise ValueError("boom")

        def waiter():
            yield shard.recv(shard.gpu_base, ("never",))

        return [shard.engine.process(ticker(), name="ticker"),
                shard.engine.process(waiter(), name="waiter")]

    shard = Shard(resolve_machine("fat-tree-32-r2-l2"), 1, build, {})
    steps = []
    _wrap_steps(shard, steps.append)
    for horizon in (2.5e-6, 5.5e-6, 9.5e-6):
        shard.step_window(horizon, [])
    flushed = len(steps)
    with pytest.raises(ProcessFailed, match="boom"):
        shard.step_window(1.0, [])
    assert shard.run_engine.steps  # the crashed window popped events...
    rec = shard.report()
    assert len(steps) > flushed  # ...and report() hashed them
    assert not rec["done"]
    ref = hashlib.sha256(b"".join(_key_text(*key) for key in steps))
    assert rec["step_digest"] == ref.hexdigest()
    # report() is repeatable: nothing is hashed twice.
    assert shard.report()["step_digest"] == ref.hexdigest()


def test_only_a_dedicated_shard_engine_hashes_its_pops():
    """Hashing is structural, not an option: a shard on its own engine
    always hashes its pop stream; shards sharing a reference engine never
    do, since that stream interleaves every shard's pops."""

    def build(shard, cfg):
        return []

    spec = resolve_machine("fat-tree-32-r2-l2")
    own = Shard(spec, 1, build, {})
    shared = Shard(spec, 1, build, {}, engine=Engine())
    assert own.report()["step_digest"] == EMPTY_STEP_DIGEST
    assert shared.engine.steps is None
    assert shared.report()["step_digest"] is None
