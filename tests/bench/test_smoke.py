"""Fast benchmark smoke tier: every paper exhibit at its ``smoke`` point.

Run with ``pytest -m smoke`` (the ``scripts/ci.sh`` smoke tier).  One
test body runs each registered exhibit end-to-end on the smallest point
it declares (``points["smoke"]``) — catching wiring regressions (route
resolution, world construction, series plumbing) in seconds without the
full sweeps.  It is bound once per exhibit as ``test_<exhibit>_smoke``.
"""

import pytest

from repro.workload.exhibits import EXHIBIT_WORKLOADS
from repro.workload.registry import get

pytestmark = pytest.mark.smoke


def _exhibit_smoke(wl):
    def test():
        series = wl.run(**wl.points["smoke"]).series
        assert series.rows, f"{series.exhibit}: empty series"
    return test


def test_every_exhibit_declares_its_points():
    for wl in (*EXHIBIT_WORKLOADS, get("striping")):
        assert set(wl.points) == {"smoke", "bench", "full"}, wl.name
        for point, params in wl.points.items():
            assert set(params) <= set(wl.defaults), f"{wl.name} {point}: {sorted(params)}"


for _wl in EXHIBIT_WORKLOADS:
    globals()[f"test_{_wl.name}_smoke"] = _exhibit_smoke(_wl)
