"""MPI request objects.

A :class:`Request` wraps a completion event plus MPI status bookkeeping.
``wait``/``test`` follow MPI semantics: ``wait`` blocks the calling rank
process; ``test`` is a zero-time poll (callers charge API overhead).
Persistent requests add ``start`` and are reusable across epochs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.mpi.errors import MpiStateError
from repro.sim.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime


class Request:
    """A communication in flight; completes exactly once per epoch."""

    def __init__(self, rt: "MpiRuntime", kind: str) -> None:
        self.rt = rt
        self.engine = rt.engine
        self.kind = kind
        self.seq = next(rt.req_seqs)
        self._done_event: Event = Event(self.engine)
        self.status: Optional[dict] = None

    # -- completion plumbing (runtime side) -------------------------------------
    def _complete(self, status: Optional[dict] = None) -> None:
        if self._done_event.triggered:
            raise MpiStateError(f"{self} completed twice")
        self.status = status or {}
        # No value: succeeding with ``self`` would make request and event
        # a reference cycle that pins the request's buffers until a
        # collection.
        self._done_event.succeed(None)

    def _fail(self, exc: BaseException) -> None:
        if not self._done_event.triggered:
            self._done_event.fail(exc)

    # -- user API -------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done_event.triggered

    def test(self) -> bool:
        """MPI_Test: nonblocking completion check."""
        return self.done

    def wait(self) -> Generator:
        """MPI_Wait: block the calling process until complete."""
        yield self.rt.params.mpi_call_overhead
        if not self.done:
            yield self._done_event
        return self.status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<Request#{self.seq} {self.kind} {state}>"


def waitall(rt: "MpiRuntime", requests: List[Request]) -> Generator:
    """MPI_Waitall."""
    yield rt.params.mpi_call_overhead
    pending = [r._done_event for r in requests if not r.done]
    if pending:
        yield AllOf(rt.engine, pending)
    return [r.status for r in requests]


class PersistentRequest(Request):
    """Base for MPI persistent requests (inactive until MPI_Start)."""

    def __init__(self, rt: "MpiRuntime", kind: str) -> None:
        super().__init__(rt, kind)
        self.epoch = 0
        self.active = False
        #: Device request (MPIX_Prequest) driving this request, if created.
        self.preq = None
        rt.persistent.append(self)

    def _begin_epoch(self) -> None:
        if self.active:
            raise MpiStateError(f"{self} started while still active")
        self.epoch += 1
        self.active = True
        self._done_event = Event(self.engine)
        self.status = None

    def _complete(self, status: Optional[dict] = None) -> None:
        self.active = False
        super()._complete(status)

    @property
    def done(self) -> bool:
        # Inactive persistent requests are "complete" per MPI semantics.
        return not self.active

    def start(self) -> Generator:
        raise NotImplementedError

    def release(self) -> None:
        """MPI_Finalize of a request the rank never freed.

        Releases the attached device request, whose progression watchers
        and back-link to this request form a reference cycle, so the
        request's buffers are freed by reference counting.  Called once by
        :meth:`MpiRuntime.close`; the request is unusable afterwards.
        """
        if self.preq is not None:
            self.preq.release()
