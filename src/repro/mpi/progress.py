"""The per-rank MPI progression engine.

One engine per rank, started at MPI_Init.  It owns:

* the **AM dispatch loops**, one event chain per AM id: the p2p one drives
  the receiver state machine (RTS match -> CTS -> data put -> FIN), and
  the four partitioned ones feed setup_t / RTR messages into the keyed
  channel that `MPIX_Pbuf_prepare` waits on;
* the single **progression thread** resource the paper mentions
  ("currently we only have a single thread which progresses partitions")
  through which device-initiated Pready dispatches serialize.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.hw.memory import Buffer, MemSpace
from repro.mpi.p2p import AM_P2P, CTS, ENVELOPE_BYTES, FIN, RTS, Envelope, check_truncation
from repro.sim.events import Event
from repro.sim.process import Chain, Delayed, Holding
from repro.sim.resources import Resource
from repro.ucx.endpoint import UcpEndpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator
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
        #: The AM dispatch loops, one per AM id (with a process's kill/is_alive).
        self._procs = [_AmLoop(self, am_id) for am_id in (AM_P2P,) + _PART_AM_IDS]

    def close(self) -> None:
        """Stop the AM dispatch loops, withdraw their parked getters and
        let go of the runtime (which keeps this engine: a cycle)."""
        for loop in self._procs:
            loop.kill()
        self.rt = None

    # -- p2p state machine -------------------------------------------------------
    def _on_p2p(self, msg) -> None:
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
            _Rendezvous(self, env, addr=sender_addr, msg=Envelope(
                CTS, env.comm_id, comm.rank, env.src, env.tag, env.nbytes,
                send_seq=env.send_seq, recv_seq=rreq.seq,
                target=rreq.buf.view(0, env.nbytes // rreq.buf.itemsize)))
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

    def _handle_cts(self, env: Envelope) -> None:
        rt = self.rt
        entry = rt.pending_sends.pop(env.send_seq, None)
        if entry is None:  # pragma: no cover - defensive
            raise RuntimeError(f"CTS for unknown send_seq {env.send_seq}")
        sreq, buf, comm = entry
        _Rendezvous(self, env, comm=comm, sreq=sreq, buf=buf)

    def _handle_fin(self, env: Envelope) -> None:
        rreq = self.rt.recv_by_seq.pop(env.recv_seq, None)
        if rreq is None:  # pragma: no cover - defensive
            raise RuntimeError(f"FIN for unknown recv_seq {env.recv_seq}")
        rreq._complete({"protocol": "rndv", "source": env.src, "tag": env.tag})

    # -- the single progression thread --------------------------------------------------
    def dispatch(self, start: Callable[[], Event], name: str = "pe_work") -> Event:
        """Run the event ``start()`` returns serialized through the progression thread.

        Models the paper's single-threaded progression: each dispatched
        item pays the dispatch cost and runs to completion before the
        next one starts.  Returns the dispatch's event (valued as the work's).
        """
        return Holding(
            self.engine, self.thread, self.rt.params.progress_dispatch_cost, start,
            ("pe", name, ("pe", self.rt.world_rank), {}),
        )


class _Rendezvous(Chain):
    """The receiver's CTS, or the sender's data put then FIN (given ``comm``,
    ``sreq`` and ``buf``).  Both end as ``ep = yield from ep_create(addr)``
    (a cached endpoint costs no pop), then sending ``msg``."""

    __slots__ = ("pe", "env", "addr", "msg", "comm", "sreq", "buf")

    def __init__(self, pe: ProgressEngine, env: Envelope, addr=None, msg=None,
                 comm=None, sreq=None, buf=None) -> None:
        self.pe, self.env, self.addr, self.msg = pe, env, addr, msg
        self.comm, self.sreq, self.buf = comm, sreq, buf
        Chain.__init__(self, pe.engine)
        if msg is not None:  # the CTS starts at the endpoint
            self._stage = 4

    def _step(self, stage: int, ev) -> None:
        rt, env, buf = self.pe.rt, self.env, self.buf
        if stage < 3:  # the sender, up to its data put
            remote = env.target.node != buf.node
            if stage == 0 and remote:
                # RC-verbs rendezvous across the IB fabric pays the extra
                # RTS/CTS handshake processing.
                return self._sleep(rt.params.ib_rndv_handshake)
            if stage <= 1 and remote and buf.space is MemSpace.DEVICE:
                # Traditional CUDA-aware rendezvous across nodes stages the
                # payload through pinned host memory (the paper's baseline
                # pipeline): one extra C2C pass for its non-overlapped part.
                # Partitioned RMA puts go GPUDirect and skip this.  The stage
                # inherits the payload's virtuality (alloc_like).
                self._stage, self.buf = 2, buf.alloc_like(
                    len(buf.data), MemSpace.PINNED, node=buf.node, label="rndv_bounce"
                )
                return rt.fabric.dataplane.put(
                    buf, self.buf, traffic_class="rndv", name="rndv_d2h"
                ).callbacks.append(self._run_callbacks)
            # Host-initiated: a peer-mappable D2D pair pays the cuda_ipc copy
            # engine, as partitioned puts do; else the fabric stages via host links.
            self._stage = 3
            return rt.fabric.dataplane.rma_put(
                buf, env.target, traffic_class="rndv", name="rndv_data"
            ).callbacks.append(self._run_callbacks)
        if stage == 3:
            sreq, comm = self.sreq, self.comm
            sreq._complete({"protocol": "rndv"})
            self.addr = rt.world.address_of(comm.world_rank_of(sreq.dest))
            self.msg = Envelope(FIN, env.comm_id, comm.rank, sreq.dest, env.tag,
                                env.nbytes, recv_seq=env.recv_seq)
        worker = rt.worker
        if stage <= 4:
            ep = worker.endpoints.get(self.addr.worker_id)
            if ep is None:
                self._stage = 5
                return self._sleep(worker.fabric.spec.params.ucp_ep_create)
        elif stage == 5:
            ep = worker.endpoints[self.addr.worker_id] = UcpEndpoint(worker, self.addr)
        else:
            return self.succeed()
        self._stage = 6
        ep.am_send(AM_P2P, self.msg, nbytes=ENVELOPE_BYTES).callbacks.append(self._run_callbacks)


class _AmLoop(Chain):
    """The AM dispatch loop of one AM id: ``while True: msg = yield
    worker.am_recv(am_id)``, then a p2p envelope runs the receiver state
    machine and a partitioned message goes to ``rt.part_matcher``."""

    __slots__ = ("pe", "am_id", "_getter")

    def __init__(self, pe: ProgressEngine, am_id: int) -> None:
        self.pe, self.am_id, self._getter = pe, am_id, None
        Chain.__init__(self, pe.engine)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def kill(self) -> None:
        """End the loop unrun, as ``Process.kill``, and withdraw its getter."""
        if self._triggered:
            return
        getter, self._getter = self._getter, None
        if getter is not None:
            self.pe.rt.worker.am.withdraw(getter, self.am_id)
            getter.callbacks = []
        self.pe = None  # pe._procs keeps its loops: a cycle
        self.succeed(None)

    def _step(self, stage: int, ev) -> None:
        pe = self.pe
        if ev is not None:  # a message arrived
            if self.am_id == AM_P2P:
                pe._on_p2p(ev._value)
            else:
                key, payload = ev._value.payload
                pe.rt.part_matcher.put(payload, (self.am_id,) + key)
        self._getter = getter = pe.rt.worker.am.get(self.am_id)
        getter.callbacks.append(self._run_callbacks)
