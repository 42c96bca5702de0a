"""CUDA streams: FIFO queues of device operations.

A stream owns a worker process that dequeues and executes operations in
order — exactly the paper's Section II-A description ("a FIFO queue of
operations executed in the order they are placed in the queue").  Host code
enqueues asynchronously and later blocks in ``Device.sync_h`` (modelling
``cudaStreamSynchronize``'s fixed 7.8 us cost, Fig 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.san import record
from repro.sim import run as _run
from repro.sim.engine import collapsible
from repro.sim.events import Event
from repro.sim.resources import Channel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.device import Device


class StreamOp:
    """One queued operation: a generator factory plus its completion event."""

    __slots__ = ("run", "done", "label")

    def __init__(self, run: Callable[[], "object"], done: Event, label: str) -> None:
        self.run = run
        self.done = done
        self.label = label


class Stream:
    """A FIFO execution queue on one device."""

    def __init__(self, device: "Device", name: str = "stream") -> None:
        self.device = device
        self.engine = device.engine
        self.name = name
        self._ops: Channel[StreamOp] = Channel(self.engine)
        self._outstanding = 0  # enqueued but not yet completed
        self._drain_waiters: list[Event] = []
        #: First failure of an op nobody waited on; ``Device.sync_h`` raises it.
        self.pending_error: Optional[Exception] = None
        self._worker = self.engine.process(self._run(), name=f"{name}.worker")

    @property
    def actor(self) -> tuple:
        """Sanitizer trace identity of this stream's worker."""
        return ("stream", self.name)

    # -- enqueue -----------------------------------------------------------------
    def enqueue(
        self, run: Callable[[], "object"], label: str, buffers: tuple = ()
    ) -> Event:
        """Queue a generator-factory op; returns its completion event.

        While a capture is open on this device the op is *recorded*, not
        executed (CUDA stream-capture semantics): recording returns a
        placeholder event that never fires, and ops landing on any other
        stream of the device raise — a cross-stream dependency the graph
        cannot represent.  ``buffers`` optionally names the endpoint
        buffers the op touches so graph replay can refuse freed ones.
        """
        capture = self.device.active_capture
        if capture is not None:
            from repro.dataplane.graph import GraphError

            if capture.stream is not self:
                raise GraphError(
                    f"op {label!r} enqueued on {self.name} while "
                    f"{capture.stream.name} is capturing: cross-stream "
                    "dependencies are not capturable"
                )
            capture.add(run, label, buffers)
            return Event(self.engine)
        done = Event(self.engine)
        # The enqueuer publishes its history to the worker (FIFO edge).
        if _run._RUN.bus is not None:
            record.release(("host", self.device.gpu_id), ("enq", done))
        self._outstanding += 1
        self._ops.put(StreamOp(run, done, label))
        obs = self.engine.obs
        if obs is not None:
            obs.counter("stream", self.name, depth=self._outstanding)
        return done

    # -- capture / graph launch ---------------------------------------------------
    def begin_capture(self):
        """Open a capture: subsequent enqueues record into a TransferGraph."""
        from repro.dataplane.graph import GraphError, TransferGraph

        if self.device.active_capture is not None:
            raise GraphError(
                f"{self.name}: device {self.device.name} already has an open "
                f"capture on {self.device.active_capture.stream.name}"
            )
        graph = TransferGraph(self)
        self.device.active_capture = graph
        return graph

    def end_capture(self):
        """Close the capture; returns the sealed, launchable graph."""
        from repro.dataplane.graph import GraphError

        graph = self.device.active_capture
        if graph is None or graph.stream is not self:
            raise GraphError(f"{self.name}: no open capture to end")
        self.device.active_capture = None
        return graph.seal()

    def graph_launch(self, graph) -> Event:
        """Replay a sealed capture as one stream submission.

        The recorded ops execute sequentially — the exact order and
        simulated timing of enqueueing each one individually — but the
        stream machinery runs once per launch instead of once per op.
        Under any observer (which must see per-op events; see
        :func:`~repro.sim.engine.collapsible`) the launch degrades to
        per-op enqueues; both paths return an event firing when the last
        op completed.
        """
        from repro.dataplane.graph import GRAPHS, GraphError

        if not graph.sealed:
            raise GraphError(
                f"{self.name}: graph is still capturing — call end_capture "
                "before launching"
            )
        if graph.stream.device is not self.device:
            raise GraphError(
                f"{self.name}: graph captured on device "
                f"{graph.stream.device.name} cannot launch on {self.device.name}"
            )
        graph.check_buffers()
        graph.launches += 1
        GRAPHS.launches += 1
        if collapsible(self.engine):
            engine, name = self.engine, self.name

            def replay():
                result = None
                for rec in graph.ops:
                    result = yield engine.process(
                        rec.make(), name=f"{name}.{rec.label}"
                    )
                return result

            return self.enqueue(replay, label=f"graph[{len(graph.ops)}]")
        last = None
        for rec in graph.ops:
            last = self.enqueue(rec.make, label=rec.label, buffers=rec.buffers)
        return last

    # -- draining ----------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no op is executing and the queue is empty."""
        return self._outstanding == 0

    def drained(self) -> Event:
        """Event firing when the stream has fully drained (possibly now)."""
        ev = Event(self.engine)
        if self.idle:
            ev.succeed(None)
        else:
            self._drain_waiters.append(ev)
        return ev

    def _notify_drained(self) -> None:
        if not self.idle:
            return
        if _run._RUN.bus is not None:
            record.release(self.actor, ("drain", self.name))
        if self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.succeed(None)

    # -- worker --------------------------------------------------------------------
    def close(self) -> None:
        """Kill the worker; ops enqueued afterwards never run."""
        self._worker.kill()

    def _run(self):
        while True:
            op: StreamOp = yield self._ops.get()
            if _run._RUN.bus is not None:
                record.acquire(self.actor, ("enq", op.done))
            obs = self.engine.obs
            t0 = self.engine.now
            try:
                result = yield self.engine.process(op.run(), name=f"{self.name}.{op.label}")
            except Exception as exc:  # noqa: BLE001 - fail just this op's waiters
                self._outstanding -= 1
                if not op.done.callbacks and self.pending_error is None:
                    # Nobody waits on this op: keep its error for the next
                    # synchronize, as CUDA reports an asynchronous error.
                    self.pending_error = exc
                op.done.fail(exc)
                self._notify_drained()
                continue
            self._outstanding -= 1
            if obs is not None:
                obs.span("stream", op.label, self.actor, t0, self.engine.now)
                obs.counter("stream", self.name, depth=self._outstanding)
            if _run._RUN.bus is not None:
                record.release(self.actor, ("opdone", op.done))
            op.done.succeed(result)
            self._notify_drained()
