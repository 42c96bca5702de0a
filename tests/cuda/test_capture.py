"""Stream capture + graph launch: record semantics, replay equivalence."""

import numpy as np
import pytest

from repro.cuda.kernel import UniformKernel
from repro.cuda.stream import Stream
from repro.cuda.timing import WorkSpec
from repro.dataplane.graph import GraphError

from ..conftest import exact_path

WORK = WorkSpec.vector_add()


def _kernel(apply=None):
    return UniformKernel(4, 256, WORK, name="k", apply=apply)


# -- capture record semantics -------------------------------------------------

def test_captured_ops_do_not_execute(engine, gpu):
    gpu.default_stream.begin_capture()
    done = gpu.launch(_kernel())
    graph = gpu.default_stream.end_capture()
    engine.run()
    assert engine.now == 0.0          # nothing ran during capture
    assert not done.triggered         # placeholder event never fires
    assert len(graph.ops) == 1 and graph.sealed


def test_cross_stream_enqueue_during_capture_rejected(engine, gpu):
    other = Stream(gpu, name="s1")
    gpu.default_stream.begin_capture()
    try:
        with pytest.raises(GraphError, match="cross-stream"):
            gpu.launch(_kernel(), stream=other)
    finally:
        gpu.launch(_kernel())
        gpu.default_stream.end_capture()


def test_nested_capture_rejected(engine, gpu):
    gpu.default_stream.begin_capture()
    try:
        with pytest.raises(GraphError, match="already has an open capture"):
            Stream(gpu, name="s1").begin_capture()
    finally:
        gpu.launch(_kernel())
        gpu.default_stream.end_capture()


def test_empty_capture_rejected(engine, gpu):
    gpu.default_stream.begin_capture()
    with pytest.raises(GraphError, match="empty capture"):
        gpu.default_stream.end_capture()
    gpu.default_stream.device.active_capture = None


def test_end_without_begin_rejected(engine, gpu):
    with pytest.raises(GraphError, match="no open capture"):
        gpu.default_stream.end_capture()


def test_unsealed_graph_cannot_launch(engine, gpu):
    graph = gpu.default_stream.begin_capture()
    gpu.launch(_kernel())
    try:
        with pytest.raises(GraphError, match="still capturing"):
            gpu.default_stream.graph_launch(graph)
    finally:
        gpu.default_stream.end_capture()


def test_sealed_graph_refuses_more_ops(engine, gpu):
    gpu.default_stream.begin_capture()
    gpu.launch(_kernel())
    graph = gpu.default_stream.end_capture()
    with pytest.raises(GraphError, match="sealed"):
        graph.add(lambda: iter(()), "late")


# -- replay equivalence -------------------------------------------------------

def _capture_and_replay(engine, gpu, launches):
    hits = []

    def apply():
        hits.append(engine.now)

    stream = gpu.default_stream
    stream.begin_capture()
    gpu.launch(_kernel(apply=apply))
    gpu.launch(_kernel(apply=apply))
    graph = stream.end_capture()

    def host():
        for _ in range(launches):
            yield from gpu.graph_launch_h(graph)
            yield from gpu.sync_h()
        return engine.now

    t_end = engine.run(engine.process(host()))
    return t_end, hits


def _eager(engine, gpu, launches):
    hits = []

    def apply():
        hits.append(engine.now)

    def host():
        for _ in range(launches):
            # One API charge then zero-cost enqueues: the same host
            # timing shape graph_launch_h produces for the whole graph.
            yield engine.timeout(gpu.params.launch_api_cost)
            gpu.launch(_kernel(apply=apply))
            gpu.launch(_kernel(apply=apply))
            yield from gpu.sync_h()
        return engine.now

    t_end = engine.run(engine.process(host()))
    return t_end, hits


def test_graph_replay_time_identical_to_eager(engine, gpu):
    from repro.cuda.device import Device
    from repro.hw.params import ONE_NODE
    from repro.hw.topology import Fabric
    from repro.sim.engine import Engine

    graph_t, graph_hits = _capture_and_replay(engine, gpu, launches=3)
    e2 = Engine()
    gpu2 = Device(Fabric(e2, ONE_NODE), 0)
    eager_t, eager_hits = _eager(e2, gpu2, launches=3)
    assert graph_t == eager_t
    assert graph_hits == eager_hits
    assert len(graph_hits) == 6       # 2 kernels x 3 launches


def test_exact_path_degrades_to_eager(engine, gpu):
    from repro.cuda.device import Device
    from repro.hw.params import ONE_NODE
    from repro.hw.topology import Fabric
    from repro.sim.engine import Engine

    with exact_path():
        t_exact, hits_exact = _capture_and_replay(engine, gpu, launches=2)
    e2 = Engine()
    gpu2 = Device(Fabric(e2, ONE_NODE), 0)
    t_on, hits_on = _capture_and_replay(e2, gpu2, launches=2)
    assert t_exact == t_on            # A/B: same simulated completion time
    assert hits_exact == hits_on


def test_captured_memcpy_rereads_source(engine, gpu):
    """Each replay moves the buffer's contents *at launch time*."""
    src = gpu.alloc(8, fill=1.0)
    dst = gpu.alloc(8)
    stream = gpu.default_stream
    stream.begin_capture()
    gpu.memcpy_async(dst, src)
    graph = stream.end_capture()

    def host():
        yield from gpu.graph_launch_h(graph)
        yield from gpu.sync_h()
        first = dst.data.copy()
        src.data[:] = 5.0
        yield from gpu.graph_launch_h(graph)
        yield from gpu.sync_h()
        return first, dst.data.copy()

    first, second = engine.run(engine.process(host()))
    assert np.all(first == 1.0) and np.all(second == 5.0)


def test_freed_buffer_invalidates_graph(engine, gpu):
    src = gpu.alloc(8, fill=1.0)
    dst = gpu.alloc(8)
    stream = gpu.default_stream
    stream.begin_capture()
    gpu.memcpy_async(dst, src)
    graph = stream.end_capture()
    src.free()
    with pytest.raises(GraphError, match="freed buffer"):
        stream.graph_launch(graph)


def test_cross_device_launch_rejected(engine, fabric, gpu):
    from repro.cuda.device import Device

    gpu1 = Device(fabric, 1)
    gpu.default_stream.begin_capture()
    gpu.launch(_kernel())
    graph = gpu.default_stream.end_capture()
    with pytest.raises(GraphError, match="cannot launch"):
        gpu1.default_stream.graph_launch(graph)
