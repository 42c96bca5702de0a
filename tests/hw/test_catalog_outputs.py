"""Output pins on the catalog's non-GH200 machines.

``dgx-nvswitch`` (switch-routed D2D, PCIe host path) and ``pcie-nop2p``
(host-staged D2D, one shared NIC, A100-class GPUs with 108 SMs and
1500 GB/s HBM) differ from the GH200 specs in their GPU constants as
well as their links.  These series digests pin what the paper exhibits
report on both, so a change to where those constants live cannot move
their simulated time.  fig2's 131072 grid runs several waves, so it
depends on the SM count; fig6 reads the device's HBM bandwidth in its
ring reductions.
"""

import pytest

from repro.workload import get

POINTS = {
    "fig2": {"grids": (4, 256, 131072)},
    "fig3": {},
    "fig5": {"grids": (1, 256, 8192)},
    "fig6": {"grids": (1024,)},
    "table1": {},
}

DIGESTS = {
    ("pcie-nop2p", "fig2"): "83251353676107c578cbb41b9d4a18013d58cc74ee0d7016285e9d1918875b60",
    ("pcie-nop2p", "fig3"): "3e8460aa71db4ac4c94ccf481c5e95edaa6ae3264d8cf7a8221cc8770e42b061",
    ("pcie-nop2p", "fig5"): "4bf73edba0c2671b9b72968071d3d9a255448debc319a31e3d5d1bcb94224f89",
    ("pcie-nop2p", "fig6"): "ab64e61174d8ba22c50f007ab72acae0175558829230e13dca2720306b0bd4f5",
    ("pcie-nop2p", "table1"): "1bb4e2699fc30c90bdbc74fd36fc510c5779bbcaedff0aa567463aae1ac1c9d6",
    ("dgx-nvswitch", "fig2"): "c56d06932c74b52c7c1c53d4e79f8b18eb77f5991321d999a3adfd1644ba1750",
    ("dgx-nvswitch", "fig3"): "bc81b1594af9c34ee25d6ca3d37d838ba42a8c4ac19b9243ea0e0f8dbd4ab6e4",
    ("dgx-nvswitch", "fig5"): "01aa47f2dff993ba121d001851362568ae36b2fa4bbcb175018359b3c5fc03a2",
    ("dgx-nvswitch", "fig6"): "001a2790505a5726e3e6b59ba2aaab36b1c1c9b7d458648bf88cf6ecd994ec32",
    ("dgx-nvswitch", "table1"): "f5ae6f3937a3c2e1e8098bcd0fd5dcb11210ec09f42d100e9dd964f789c430d8",
}


@pytest.mark.parametrize("machine,exhibit", sorted(DIGESTS))
def test_catalog_machine_series_pinned(machine, exhibit):
    result = get(exhibit).run(machine=machine, **POINTS[exhibit])
    assert result.digests["series"] == DIGESTS[machine, exhibit]
