"""Shared helpers for the benchmarks.

``test_claims.py`` regenerates the paper's tables and figures through the
simulation and asserts the paper's *shape* claims (orderings, approximate
factors, crossover locations); the ablation files sweep the design knobs
the paper fixes.  Absolute times are simulated, so pytest-benchmark's
wall-clock statistics measure harness cost only.
"""


def within(value: float, lo: float, hi: float, what: str) -> None:
    assert lo <= value <= hi, f"{what} = {value:.3f} outside expected band [{lo}, {hi}]"
