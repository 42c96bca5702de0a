"""repro.san — partitioned-communication sanitizer for the DES.

Three layers (see DESIGN.md §8 and README "Sanitizing a run"):

* :mod:`repro.san.record` — opt-in access/sync/trace recording.  When a
  :class:`Sanitizer` is active, instrumented sites across the simulator
  (buffers, kernels, streams, the partitioned layer) log every simulated
  read/write/signal as ``(actor, time, seq, range, kind)`` events.
* :mod:`repro.san.hb` — a vector-clock happens-before race detector over
  the recorded trace, with synchronization edges from stream ordering,
  kernel launch/join, Pready signal delivery, and Parrived arrival.
* :mod:`repro.san.checks` — MPI 4.0 partitioned-semantics rules (double
  ``Pready``, ``Pready`` outside an epoch / on a freed request, reads
  before ``Parrived``, send-partition overwrite in flight, uninitialized
  device reads, cross-node IPC misuse).

Partition ordering (``read-before-parrived``, ``send-overwrite``) is
checked here only, on the recorded run; there is no static counterpart.
The static companion :mod:`repro.analyze` (``python -m repro analyze``)
checks repo conventions, the process yield protocol and determinism
hazards, and ``--list-checks`` lists its rules beside the dynamic ones.

Usage::

    from repro.san import Sanitizer

    with Sanitizer() as san:
        World(ONE_NODE).run(main, nprocs=2)
    assert san.report.ok, san.report.render()

or from the command line::

    python -m repro san examples/quickstart.py
    python -m repro san --list-checks
"""

__all__ = ["Finding", "Report", "Sanitizer"]

#: Exported name -> defining submodule.  Resolved on first access (PEP 562)
#: so that the instrumented sites' ``from repro.san import record`` loads
#: the recorder alone, not the analysis (report, checks, hb, clocks).
_EXPORTS = {"Finding": "report", "Report": "report", "Sanitizer": "sanitizer"}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
