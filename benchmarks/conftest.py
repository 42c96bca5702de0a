"""Shared helpers for the exhibit benchmarks.

Each benchmark regenerates one of the paper's tables/figures through the
simulation, prints the paper-style series, and asserts the paper's *shape*
claims (orderings, approximate factors, crossover locations).  Absolute
times are simulated, so pytest-benchmark's wall-clock statistics measure
harness cost only; the scientific payload is the printed series and the
assertions.
"""

import pytest

from repro.bench.series import Series, render
from repro.workload.registry import get


def run_exhibit(benchmark, name: str, **params) -> Series:
    """Run one registered workload under pytest-benchmark and print its series."""
    series = benchmark.pedantic(get(name).run, kwargs=params, rounds=1, iterations=1).series
    print()
    print(render(series))
    return series


def within(value: float, lo: float, hi: float, what: str) -> None:
    assert lo <= value <= hi, f"{what} = {value:.3f} outside expected band [{lo}, {hi}]"
