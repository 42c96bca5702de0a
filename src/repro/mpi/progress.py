"""The per-rank MPI progression engine.

One engine per rank, started at MPI_Init.  It owns:

* the **AM dispatch loop** driving the p2p receiver state machine
  (RTS match -> CTS -> data put -> FIN);
* the **partitioned AM router** feeding setup_t / RTR messages into the
  keyed channel that `MPIX_Pbuf_prepare` waits on;
* the single **progression thread** resource the paper mentions
  ("currently we only have a single thread which progresses partitions")
  through which device-initiated Pready dispatches serialize.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.p2p import AM_P2P, CTS, ENVELOPE_BYTES, FIN, RTS, Envelope, check_truncation
from repro.sim.process import Delayed
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
    from repro.mpi.requests import Request
    from repro.mpi.runtime import MpiRuntime

#: AM ids used by the partitioned layer (routed into rt.part_matcher).
AM_PART_SETUP = 2        # sender -> receiver: setup_t
AM_PART_SETUP_RESP = 3   # receiver -> sender: setup_t response (rkeys)
AM_PART_RTR = 4          # receiver -> sender: ready-to-receive signal
AM_PART_FIN = 5          # sender -> receiver: epoch-completion control

_PART_AM_IDS = (AM_PART_SETUP, AM_PART_SETUP_RESP, AM_PART_RTR, AM_PART_FIN)


class ProgressEngine:
    """Drives asynchronous protocol work for one rank."""

    def __init__(self, rt: "MpiRuntime") -> None:
        self.rt = rt
        self.engine = rt.engine
        # The single progression thread (paper Section IV-A5).
        self.thread = Resource(
            self.engine, capacity=1, name=f"r{rt.world_rank}.pe"
        )
        self._procs = [
            self.engine.process(self._p2p_loop(), name=f"r{rt.world_rank}.prog.p2p")
        ]
        self._procs += [
            self.engine.process(self._part_loop(am_id), name=f"r{rt.world_rank}.prog.part{am_id}")
            for am_id in _PART_AM_IDS
        ]

    def close(self) -> None:
        """Kill the AM dispatch loops (they park forever on ``am_recv``)."""
        for proc in self._procs:
            proc.kill()

    # -- p2p state machine -------------------------------------------------------
    def _p2p_loop(self) -> Generator:
        worker = self.rt.worker
        while True:
            msg = yield worker.am_recv(AM_P2P)
            env: Envelope = msg.payload
            obs = self.engine.obs
            if obs is not None:
                obs.instant(
                    "mpi", f"am-{env.kind}", ("pe", self.rt.world_rank),
                    src=env.src, tag=env.tag, nbytes=env.nbytes,
                )
            if env.kind == RTS:
                self._handle_rts(env, msg.sender)
            elif env.kind == CTS:
                self._handle_cts(env)
            elif env.kind == FIN:
                self._handle_fin(env)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown p2p envelope kind {env.kind!r}")

    def _handle_rts(self, env: Envelope, sender_addr) -> None:
        rt = self.rt
        rreq = rt.matcher.deliver(env.comm_id, env.src, env.tag, (env, sender_addr))
        obs = self.engine.obs
        if obs is not None:
            obs.instant(
                "mpi", "rts-match" if rreq is not None else "rts-unexpected",
                ("pe", rt.world_rank), src=env.src, tag=env.tag,
            )
        if rreq is None:
            return  # queued as unexpected; a future post_recv picks it up
        comm = rt.comms[env.comm_id]
        self.satisfy_recv(comm, rreq, env, sender_addr)

    def satisfy_recv(self, comm: "Communicator", rreq, env: Envelope, sender_addr) -> None:
        """A posted receive met its envelope: unpack eager or answer CTS.

        Protocol errors (truncation) fail the receive request so they
        surface at the application's MPI_Wait, like an MPI error class.
        """
        try:
            check_truncation(env, rreq)
        except Exception as exc:
            self.rt.recv_by_seq.pop(rreq.seq, None)
            rreq._fail(exc)
            return
        rt = self.rt
        if env.payload is None:
            self.engine.process(
                self._send_cts(comm, rreq, env, sender_addr), name=f"r{rt.world_rank}.cts"
            )
        elif rreq.buf.space.host_accessible:  # unpack at host memory bandwidth
            Delayed(self.engine, env.nbytes / rt.params.host_mem_bw,
                    lambda: self._deliver_eager(rreq, env, unpack=True))
        else:
            self.engine.process(self._stage_eager(rreq, env), name=f"r{rt.world_rank}.eager")

    def _stage_eager(self, rreq, env: Envelope) -> Generator:
        # Device target: staged H2D copy through the superchip's C2C.
        target = rreq.buf.view(0, len(env.payload))
        staged = Buffer(env.payload, MemSpace.PINNED, node=self.rt.node)
        yield self.rt.fabric.dataplane.put(staged, target, traffic_class="eager", name="eager_h2d")
        self._deliver_eager(rreq, env, unpack=False)

    def _deliver_eager(self, rreq, env: Envelope, unpack: bool) -> None:
        if unpack:  # from the bounce buffer into the user buffer
            target = rreq.buf.view(0, len(env.payload))
            if not target.is_virtual:
                target.data[:] = env.payload
        self.rt.recv_by_seq.pop(rreq.seq, None)
        rreq._complete({"protocol": "eager", "source": env.src, "tag": env.tag})

    def _send_cts(self, comm, rreq, env: Envelope, sender_addr) -> Generator:
        rt = self.rt
        ep = yield from rt.worker.ep_create(sender_addr)
        n_elems = env.nbytes // rreq.buf.itemsize
        cts = Envelope(
            CTS, env.comm_id, comm.rank, env.src, env.tag, env.nbytes,
            send_seq=env.send_seq, recv_seq=rreq.seq,
            target=rreq.buf.view(0, n_elems),
        )
        yield ep.am_send(AM_P2P, cts, nbytes=ENVELOPE_BYTES)

    def _handle_cts(self, env: Envelope) -> None:
        rt = self.rt
        entry = rt.pending_sends.pop(env.send_seq, None)
        if entry is None:  # pragma: no cover - defensive
            raise RuntimeError(f"CTS for unknown send_seq {env.send_seq}")
        sreq, buf, comm = entry
        self.engine.process(
            self._rndv_put(comm, sreq, buf, env), name=f"r{rt.world_rank}.rndv"
        )

    def _rndv_put(self, comm, sreq, buf, env: Envelope) -> Generator:
        rt = self.rt
        assert env.target is not None
        if env.target.node != buf.node:
            # RC-verbs rendezvous across the IB fabric pays the extra
            # RTS/CTS handshake processing.
            yield rt.params.ib_rndv_handshake
        if (
            buf.space is MemSpace.DEVICE
            and env.target.node != buf.node
        ):
            # Traditional CUDA-aware rendezvous across nodes stages the
            # payload through pinned host memory (the production pipeline
            # the paper baselines against); we charge one extra C2C pass
            # for the non-overlapped portion of that pipeline.  The
            # partitioned path's RMA puts go GPUDirect and skip this.
            # The stage inherits the payload's virtuality (alloc_like), so
            # geometry-only benchmark buffers never materialize GiB copies.
            bounce = buf.alloc_like(
                len(buf.data), MemSpace.PINNED, node=buf.node, label="rndv_bounce"
            )
            yield rt.fabric.dataplane.put(
                buf, bounce, traffic_class="rndv", name="rndv_d2h"
            )
            buf = bounce
        # Host-initiated: a peer-mappable D2D pair pays the cuda_ipc
        # copy-engine path, same as the partitioned layer's puts (fair
        # baseline); otherwise the fabric stages through host links.
        yield rt.fabric.dataplane.rma_put(
            buf, env.target, traffic_class="rndv", name="rndv_data"
        )
        sreq._complete({"protocol": "rndv"})
        ep = yield from rt.ep_to(comm, sreq.dest)
        fin = Envelope(
            FIN, env.comm_id, comm.rank, sreq.dest, env.tag, env.nbytes,
            recv_seq=env.recv_seq,
        )
        yield ep.am_send(AM_P2P, fin, nbytes=ENVELOPE_BYTES)

    def _handle_fin(self, env: Envelope) -> None:
        rreq = self.rt.recv_by_seq.pop(env.recv_seq, None)
        if rreq is None:  # pragma: no cover - defensive
            raise RuntimeError(f"FIN for unknown recv_seq {env.recv_seq}")
        rreq._complete({"protocol": "rndv", "source": env.src, "tag": env.tag})

    # -- partitioned AM routing ------------------------------------------------------
    def _part_loop(self, am_id: int) -> Generator:
        worker = self.rt.worker
        while True:
            msg = yield worker.am_recv(am_id)
            key, payload = msg.payload
            self.rt.part_matcher.put(payload, (am_id,) + key)

    # -- the single progression thread --------------------------------------------------
    def dispatch(self, work: Callable[[], Generator], name: str = "pe_work"):
        """Run ``work`` serialized through the progression thread.

        Models the paper's single-threaded progression: each dispatched
        item pays the dispatch cost and runs to completion before the
        next one starts.  Returns the process event.
        """
        def proc():
            yield self.thread.acquire()
            obs = self.engine.obs
            t0 = self.engine.now
            try:
                yield self.rt.params.progress_dispatch_cost
                result = yield self.engine.process(work(), name=name)
            finally:
                if obs is not None:
                    obs.span(
                        "pe", name, ("pe", self.rt.world_rank),
                        t0, self.engine.now,
                    )
                self.thread.release()
            return result

        return self.engine.process(proc(), name=f"r{self.rt.world_rank}.pe.{name}")
