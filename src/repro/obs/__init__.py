"""repro.obs: the one instrumentation bus for the whole DES.

Every layer of the simulator — engine scheduling, resource waits, CUDA
streams and kernels, the MPI progression engine, UCX puts/rkeys, the
partitioned protocol, and per-link byte flow — publishes typed,
timestamped events onto a single :class:`~repro.obs.bus.Bus`.  Two
consumers subscribe: the sanitizer's :class:`~repro.san.record.Recorder`
and the profiler's :class:`~repro.obs.profile.Collector`, whose kept
events feed the Chrome ``trace_event`` exporter (:mod:`repro.obs.chrome`)
and the utilization / critical-path reports (:mod:`repro.obs.profile`).

With zero subscribers every instrumentation hook is a single ``is None``
test on ``engine.obs`` — the hot path is unchanged.  See DESIGN.md §10.

Only the bus core is re-exported here; import the exporter and profiler
submodules explicitly (they depend on ``repro.san.record`` for actor
naming, which itself publishes through this package).
"""

from repro.obs.bus import (  # noqa: F401  (re-export surface)
    COUNTER,
    INSTANT,
    SPAN,
    Bus,
    ObsEvent,
)
