"""Span tracer for hostbench's traced unit.

The tracer wraps the public entry points of each ``repro`` layer from
outside the program.  It patches the class or module attributes that
callers look functions up through, records one span per call, and
keeps the spans on a stack so that a span's *self* time is its duration
minus the time of the spans nested inside it.  Spans are aggregated in
memory per entry point (calls, total seconds, self seconds).  Nothing
under ``src/`` changes, and :meth:`Tracer.restore` puts every patched
attribute back.

Generators are timed per resume slice: a generator returned by a wrapped
entry point is replaced by a forwarding generator that passes ``send``,
``throw`` and ``close`` through and times each resume of the inner one.
Process bodies are attributed the same way, to the package that defines
the generator function (``Engine.process`` is the hook), and the
rank-main callables handed to ``World.launch`` count as the ``apps``
layer.  What runs under ``Engine.run`` outside every other span is the
``sim`` layer's own time: heap operations, event callbacks and the
process resume machinery.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

import repro

#: The layers, one per ``src/repro`` package, in report order.
LAYERS = (
    "sim", "hw", "dataplane", "ucx", "mpi", "partitioned", "pcoll",
    "nccl", "cuda", "shard", "workload", "apps",
)

#: Process bodies defined outside the layer packages that still belong to
#: one: the ``repro.bench`` measurement programs are rank applications.
_PACKAGE_LAYER = {"bench": "apps"}

#: The public entry points wrapped per layer, as ``module:Attr.path``.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.engine:Engine.run",
        "repro.sim.engine:Engine.process",
    ),
    "hw": (
        "repro.hw.topology:Fabric.__init__",
        "repro.hw.topology:Fabric.route",
        "repro.hw.spec.graph:LinkGraph.search",
        "repro.hw.memory:Buffer.copy_from",
        "repro.hw.links:start_transfer",
    ),
    "dataplane": (
        "repro.dataplane.plane:Dataplane.submit",
        "repro.dataplane.plane:Dataplane.rma_put",
        "repro.dataplane.plane:Dataplane.put",
        "repro.dataplane.plane:Dataplane.control",
        "repro.dataplane.ledger:Ledger.account",
        "repro.dataplane.graph:PlanCache.lookup",
    ),
    "ucx": (
        "repro.ucx.context:UcpContext.create",
        "repro.ucx.context:UcpContext.worker_create",
        "repro.ucx.context:UcpWorker.ep_create",
        "repro.ucx.endpoint:UcpEndpoint.put_nbx",
        "repro.ucx.endpoint:UcpEndpoint.am_send",
        "repro.ucx.memreg:mem_map",
        "repro.ucx.memreg:rkey_pack",
        "repro.ucx.memreg:rkey_unpack",
        "repro.ucx.memreg:rkey_ptr",
    ),
    "mpi": (
        "repro.mpi.world:World.__init__",
        "repro.mpi.world:World.launch",
        "repro.mpi.world:World.run",
        "repro.mpi.runtime:MpiRuntime.init",
        "repro.mpi.runtime:MpiRuntime.finalize",
        "repro.mpi.comm:Communicator.isend",
        "repro.mpi.comm:Communicator.irecv",
        "repro.mpi.comm:Communicator.send",
        "repro.mpi.comm:Communicator.recv",
        "repro.mpi.comm:Communicator.barrier",
        "repro.mpi.comm:Communicator.allreduce",
        "repro.mpi.requests:Request.wait",
        "repro.mpi.requests:waitall",
    ),
    "partitioned": (
        "repro.partitioned.p2p:psend_init",
        "repro.partitioned.p2p:precv_init",
        "repro.partitioned.p2p:PsendRequest.start",
        "repro.partitioned.p2p:PsendRequest.pbuf_prepare",
        "repro.partitioned.p2p:PsendRequest.pready",
        "repro.partitioned.p2p:PsendRequest.wait",
        "repro.partitioned.p2p:PsendRequest.prequest_create",
        "repro.partitioned.p2p:PrecvRequest.start",
        "repro.partitioned.p2p:PrecvRequest.pbuf_prepare",
        "repro.partitioned.p2p:PrecvRequest.wait",
        "repro.partitioned.device:PreadyWaveHook.wave_batches",
        "repro.partitioned.device:pready_wave",
    ),
    "pcoll": (
        "repro.pcoll.api:pallreduce_init",
        "repro.pcoll.request:PcollRequest.start",
        "repro.pcoll.request:PcollRequest.pbuf_prepare",
        "repro.pcoll.request:PcollRequest.pready",
        "repro.pcoll.request:PcollRequest.wait",
        "repro.pcoll.request:PcollRequest.prequest_create",
    ),
    "nccl": (
        "repro.nccl.allreduce:NcclComm.init",
        "repro.nccl.allreduce:NcclComm.all_reduce",
    ),
    "cuda": (
        "repro.cuda.device:Device.launch",
        "repro.cuda.device:Device.launch_h",
        "repro.cuda.device:Device.sync_h",
        "repro.cuda.stream:Stream.enqueue",
    ),
    "shard": (
        "repro.shard.cluster:ClusterJob.run_sequential",
        "repro.shard.shard:Shard.__init__",
        "repro.shard.shard:Shard.step_window",
    ),
    "workload": (
        "repro.workload.base:Workload.run",
    ),
}

#: Instance counters summed over every instance while the tracer is
#: installed (``class:attr`` -> tally name).
TALLIES = {
    "repro.dataplane.plane:Dataplane.submissions": "dataplane.submits",
    "repro.dataplane.plane:Dataplane.reroutes": "dataplane.reroutes",
    "repro.dataplane.plane:Dataplane.faults": "dataplane.faults",
}


class Entry:
    """Aggregated spans of one entry point."""

    __slots__ = ("layer", "calls", "total_s", "self_s", "yields", "counts")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Values produced by the generators this entry returned.
        self.yields = 0
        #: Entry-specific amounts (bytes copied, windows driven, ...).
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def as_dict(self) -> dict:
        return {
            "layer": self.layer, "calls": self.calls, "total_s": self.total_s,
            "self_s": self.self_s, "yields": self.yields, "counts": dict(self.counts),
        }


class _Tally:
    """Class-level data descriptor shadowing an instance counter.

    Each assignment stores the value in the instance dict, as before, and
    adds its increment to ``total``; removing the descriptor leaves the
    instances reading their own dict again.
    """

    def __init__(self, attr: str) -> None:
        self.attr = attr
        self.total = 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj, value) -> None:
        self.total += value - obj.__dict__.get(self.attr, 0)
        obj.__dict__[self.attr] = value


def _copy_bytes(entry: Entry, args, result) -> None:
    dst = args[0]
    if dst.data.flags.writeable:  # virtual buffers move no payload
        entry.add("bytes", dst.data.nbytes)


def _ledger_bytes(entry: Entry, args, result) -> None:
    entry.add("bytes", args[1].wire_bytes)


def _cluster_counts(entry: Entry, args, result) -> None:
    entry.add("windows", result.windows)
    entry.add("messages", result.messages)
    entry.add("graph_launches", result.graph_launches)


#: Entry key -> hook(entry, args, result) run after each call returns.
_AFTER = {
    "hw:Buffer.copy_from": _copy_bytes,
    "dataplane:Ledger.account": _ledger_bytes,
    "shard:ClusterJob.run_sequential": _cluster_counts,
}


def _resolve(spec: str, missing_ok: bool = False):
    """``module:Attr.path`` -> (owner, attribute name, raw attribute).

    For a class attribute the raw attribute is the one in the class's own
    ``__dict__`` (a ``classmethod`` object stays one), so patches land on
    the class that defines it and subclasses inherit them.
    """
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = vars(owner).get(name)
    if raw is None and not missing_ok:
        raise AttributeError(f"{spec}: not defined on {owner!r}")
    return owner, name, raw


class Tracer:
    """Install wrappers, run traced code, aggregate spans, restore.

    Use as a context manager around :meth:`run`; every attribute patched
    on entry is restored on exit, even when the traced code raises.
    """

    def __init__(self) -> None:
        self.entries: Dict[str, Entry] = {}
        self.tallies: Dict[str, _Tally] = {}
        #: Root span time of the last :meth:`run`.
        self.root_s = 0.0
        self._stack: List[list] = []
        #: (owner, name, original raw attribute or None when absent).
        self._patched: List[tuple] = []
        #: (wrapper, original) of module functions, for the restore sweep.
        self._wrappers: List[tuple] = []
        self._pkg_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._file_layer: Dict[str, Optional[str]] = {}

    # -- span accounting -----------------------------------------------------
    def entry(self, key: str, layer: str) -> Entry:
        e = self.entries.get(key)
        if e is None:
            e = self.entries[key] = Entry(layer)
        return e

    def _timed_gen(self, entry: Entry, gen: GeneratorType) -> GeneratorType:
        """Forward ``gen``, timing each resume as a span of ``entry``."""
        stack = self._stack
        clock = time.perf_counter

        def forward():
            value = None
            exc = None
            while True:
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    out = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                    dt = clock() - frame[0]
                    entry.total_s += dt
                    entry.self_s += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                entry.yields += 1
                try:
                    value = yield out
                    exc = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the inner generator
                    value, exc = None, err

        wrapped = forward()
        # Process names default to the generator's __name__.
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def _timed_call(self, entry: Entry, fn: Callable, after=None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        timed_gen = self._timed_gen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry.calls += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dt = clock() - frame[0]
                entry.total_s += dt
                entry.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(entry, args, result)
            if type(result) is GeneratorType:
                return timed_gen(entry, result)
            return result

        return wrapper

    def layer_of(self, gen: GeneratorType) -> Optional[str]:
        """The layer whose package defines ``gen``'s function, or None."""
        path = gen.gi_code.co_filename
        layer = self._file_layer.get(path, "?")
        if layer == "?":
            layer = None
            full = os.path.abspath(path)
            if full.startswith(self._pkg_dir):
                package = full[len(self._pkg_dir):].split(os.sep)[0]
                package = _PACKAGE_LAYER.get(package, package)
                if package in LAYERS:
                    layer = package
            self._file_layer[path] = layer
        return layer

    # -- special wrappers --------------------------------------------------------
    def _process_hook(self, fn: Callable) -> Callable:
        """``Engine.process``: attribute the spawned body to its layer."""
        layer_of = self.layer_of
        entry_for = self.entry
        timed_gen = self._timed_gen

        def process(engine, gen, name=None):
            if type(gen) is GeneratorType:
                layer = layer_of(gen)
                if layer is not None:
                    body = entry_for(f"{layer}:{gen.__qualname__} (process)", layer)
                    body.calls += 1
                    gen = timed_gen(body, gen)
            return fn(engine, gen, name)

        return process

    def _launch_hook(self, fn: Callable) -> Callable:
        """``World.launch``: the rank-main callable is the apps layer."""
        entry_for = self.entry
        timed_gen = self._timed_gen

        def launch(world, main, *args, **kwargs):
            app = entry_for(f"apps:{main.__qualname__} (rank main)", "apps")

            def rank_main(ctx, *main_args):
                app.calls += 1
                body = main(ctx, *main_args)
                return timed_gen(app, body) if type(body) is GeneratorType else body

            rank_main.__qualname__ = main.__qualname__
            return fn(world, rank_main, *args, **kwargs)

        return launch

    # -- install / restore -------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        had = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
        self._patched.append((owner, name, had))
        setattr(owner, name, value)

    def install(self) -> None:
        for key, spec in entry_points():
            layer = key.split(":")[0]
            owner, name, raw = _resolve(spec)
            entry = self.entry(key, layer)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if key == "sim:Engine.process":
                fn = self._process_hook(fn)
            elif key == "mpi:World.launch":
                fn = self._launch_hook(fn)
            wrapped = self._timed_call(entry, fn, _AFTER.get(key))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._set(owner, name, wrapped)
            if not isinstance(owner, type):
                self._wrappers.append((wrapped, raw))
                for module, attr in _by_name_references(raw):
                    self._set(module, attr, wrapped)
        for spec, tally_name in TALLIES.items():
            owner, name, _ = _resolve(spec, missing_ok=True)
            tally = self.tallies[tally_name] = _Tally(name)
            self._set(owner, name, tally)

    def restore(self) -> None:
        while self._patched:
            owner, name, had = self._patched.pop()
            if had is None:
                delattr(owner, name)
            else:
                setattr(owner, name, had)
        # A module imported while the tracer was installed may have bound
        # a wrapper by name; hand it the original back as well.
        for wrapped, original in self._wrappers:
            for module, attr in _by_name_references(wrapped):
                setattr(module, attr, original)
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()  # undo the patches made before the failure
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- running -----------------------------------------------------------------
    def run(self, fn: Callable):
        """Call ``fn()`` under a root span; returns its result."""
        stack = self._stack
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn()
        finally:
            stack.pop()
            self.root_s = time.perf_counter() - frame[0]

    # -- aggregation -------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"calls", "self_s"}`` summed over its entries."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for e in self.entries.values():
            out[e.layer]["calls"] += e.calls
            out[e.layer]["self_s"] += e.self_s
        return out



def entry_points() -> List[Tuple[str, str]]:
    """``(layer:Attr.path, module:Attr.path)`` for every wrapped entry point."""
    return [
        (f"{layer}:{spec.split(':')[1]}", spec)
        for layer, specs in ENTRY_POINTS.items() for spec in specs
    ]


def _by_name_references(obj) -> List[Tuple[object, str]]:
    """Every ``(module, attr)`` in the ``repro`` packages bound to ``obj``."""
    return [
        (module, attr)
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("repro") and module is not None
        for attr, value in list(vars(module).items())
        if value is obj
    ]
