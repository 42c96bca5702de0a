"""Striping exhibit: single-path vs multi-path D2D goodput crossover.

Claims asserted here (DESIGN.md §12):

* below ``MultiPathPolicy.min_stripe_bytes`` the striped plan coincides
  with the single-path plan (speedup exactly 1.0, one stripe);
* the largest intra-node point stripes across >= 2 link-disjoint routes
  and gains >= 1.5x goodput (GH200 mesh: direct NVLink + two NVLink
  detours + the C2C host path);
* single-path goodput respects the 150 GB/s NVLink unidirectional bound
  while the striped aggregate exceeds it;
* the speedup grows monotonically with size once striping engages
  (per-stripe overheads amortize away).
"""

from conftest import run_exhibit, within

from repro.units import KiB, MiB

#: Overhead-dominated KiBs through bandwidth-bound GiB-scale.
SIZES = (64 * KiB, 512 * KiB, 2 * MiB, 8 * MiB, 64 * MiB, 512 * MiB)


def test_striping_crossover(benchmark):
    series = run_exhibit(benchmark, "striping", sizes=SIZES)

    small = series.rows[0]
    assert small["stripes"] == 1, "64 KiB must not stripe (min_stripe_bytes)"
    assert small["speedup"] == 1.0, "unstriped plan must be byte-identical"

    large = series.rows[-1]
    assert large["stripes"] >= 2, "largest point must find link-disjoint routes"
    within(large["speedup"], 1.5, 8.0, "striped speedup at the largest point")
    assert large["single_GBps"] <= 150.0, "single path bound by one NVLink"
    assert large["multi_GBps"] > 150.0, "stripes must beat the single-link bound"

    engaged = [r["speedup"] for r in series.rows if r["stripes"] > 1]
    assert engaged == sorted(engaged), "speedup must grow as overheads amortize"
