"""Fast benchmark smoke tier: one small-grid point per paper exhibit.

Run with ``pytest -m smoke`` (the ``scripts/ci.sh`` smoke tier).  One
test body runs each registered exhibit end-to-end on its smallest sweep
point — catching wiring regressions (route resolution, world
construction, series plumbing) in seconds without the full decimated
sweeps.  It is bound once per exhibit as ``test_<exhibit>_smoke``.
"""

import pytest

from repro.workload.exhibits import EXHIBIT_WORKLOADS
from repro.workload.registry import get

pytestmark = pytest.mark.smoke

#: exhibit -> its one-point params.
ONE_POINT = {
    "fig2": {"grids": (4,)},
    "fig3": {"threads": (32,)},
    "fig4": {"grids": (16,)},
    "fig5": {"grids": (16,)},
    "fig6": {"grids": (1024,)},
    "fig7": {"grids": (1024,)},
    "table1": {},
    "fig8": {"multipliers": (1,), "iters": 3},
    "fig9": {"multipliers": (1,), "iters": 3},
    "fig10": {"grids": (256,)},
    "fig11": {"grids": (256,)},
}


def _exhibit_smoke(name):
    def test():
        series = get(name).run(**ONE_POINT[name]).series
        assert series.rows, f"{series.exhibit}: empty series"
    return test


def test_one_point_per_registered_exhibit():
    assert list(ONE_POINT) == [wl.name for wl in EXHIBIT_WORKLOADS]


for _name in ONE_POINT:
    globals()[f"test_{_name}_smoke"] = _exhibit_smoke(_name)
