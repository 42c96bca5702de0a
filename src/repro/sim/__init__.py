"""Deterministic discrete-event simulation engine.

This package is the substrate on which every other subsystem runs: the GPU
simulator, the UCX-like network, MPI ranks, and the progression engines are
all generator-coroutine :class:`~repro.sim.process.Process` objects scheduled
on a single :class:`~repro.sim.engine.Engine`.

Design goals:

* **Determinism** — events at equal simulated times fire in a stable,
  documented order (scheduling priority, then insertion sequence), so tests
  can assert exact event orderings.
* **No busy-waiting** — all blocking constructs (:class:`Flag`,
  :class:`Channel`, :class:`Counter`, :class:`Resource`) wake their waiters
  through events; polling loops are modelled by *charging latency*, not by
  spinning the event loop.
* **One rendezvous** — :class:`Channel` is the only put/get hand-off: a
  keyed FIFO that stream queues, MPI partitioned setup matching, UCX
  active messages and the shard mailbox all share.
* **SimPy-like ergonomics** — processes are plain generators that ``yield``
  :class:`Timeout`, :class:`Event`, other processes, or the combinator
  :class:`AllOf`.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process, ProcessFailed
from repro.sim.resources import Channel, Counter, Flag, Resource

__all__ = [
    "AllOf",
    "Channel",
    "Counter",
    "Engine",
    "Event",
    "Flag",
    "Process",
    "ProcessFailed",
    "Resource",
    "Timeout",
]
