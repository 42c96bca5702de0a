"""Stream semantics standalone: drain, errors, interleaving."""

import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import UniformKernel
from repro.cuda.stream import Stream
from repro.cuda.timing import WorkSpec, kernel_exec_time
from repro.units import us

WORK = WorkSpec.vector_add()


def test_idle_initially(gpu):
    assert gpu.default_stream.idle


def test_not_idle_with_queued_work(engine, gpu):
    gpu.launch(UniformKernel(256, 1024, WORK))
    assert not gpu.default_stream.idle
    engine.run()
    assert gpu.default_stream.idle


def test_drained_fires_after_all_ops(engine, gpu):
    for _ in range(3):
        gpu.launch(UniformKernel(256, 1024, WORK))
    times = []

    def waiter():
        yield gpu.default_stream.drained()
        times.append(engine.now)

    engine.process(waiter())
    engine.run()
    one = kernel_exec_time(gpu.params, 256, 1024, WORK)
    assert times[0] == pytest.approx(3 * one)


def test_drained_immediate_when_idle(engine, gpu):
    def waiter():
        t0 = engine.now
        yield gpu.default_stream.drained()
        return engine.now - t0

    assert engine.run(engine.process(waiter())) == 0.0


def test_failing_op_fails_waiter_not_engine(engine, gpu):
    def boom():
        yield engine.timeout(1 * us)
        raise ValueError("kernel fault")

    done = gpu.default_stream.enqueue(boom, label="bad")

    def host():
        with pytest.raises(ValueError, match="kernel fault"):
            yield done
        return "survived"

    assert engine.run(engine.process(host())) == "survived"


def test_stream_continues_after_failed_op(engine, gpu):
    def boom():
        yield engine.timeout(1 * us)
        raise ValueError("x")

    bad = gpu.default_stream.enqueue(boom, label="bad")
    bad.add_callback(lambda ev: None)  # observed, so no engine crash
    ok = gpu.launch(UniformKernel(1, 64, WORK))
    engine.run()
    assert ok.triggered and ok.ok


def test_ops_across_streams_do_not_block_each_other(engine, gpu):
    s2 = Stream(gpu, name="s1")

    def slow():
        yield engine.timeout(1000 * us)

    stuck = gpu.default_stream.enqueue(slow, label="slow")
    quick = gpu.launch(UniformKernel(1, 64, WORK), stream=s2)

    def host():
        yield quick
        return engine.now

    t = engine.run(engine.process(host()))
    assert t < 10 * us
    assert not stuck.triggered
