"""Benchmark harness: regenerates every table and figure of the paper.

The measurement modules (:mod:`~repro.bench.p2p`, :mod:`~repro.bench.coll`,
:mod:`~repro.bench.apps`, :mod:`~repro.bench.multipath`) own the
methodology; :mod:`repro.workload.exhibits` registers each exhibit as a
Workload whose ``run(...).series`` is a :class:`~repro.bench.series.Series`
mirroring what the paper plots, and :func:`~repro.bench.series.render`
prints it.  :mod:`repro.bench.suite` is ``python -m repro bench``, the
pinned event-counter suite over registered workloads.
``benchmarks/test_claims.py`` checks every paper claim against the
exhibits, and EXPERIMENTS.md records paper-vs-measured values.
"""

from repro.bench.series import Series, render

__all__ = ["Series", "render"]
