"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.analyze.model import Project
from repro.analyze.registry import all_passes
from repro.analyze.rules import run_passes
from repro.cuda.device import Device
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.hw.topology import Fabric
from repro.mpi.world import World
from repro.obs.bus import Bus
from repro.sim.engine import Engine
from repro.sim.run import run_scope

#: ``pytest --hypothesis-profile=deep`` (scripts/ci.sh's parser-fuzz step):
#: many more generated inputs per property than the default profile.
settings.register_profile("deep", max_examples=500, deadline=None)


@contextmanager
def exact_path():
    """Run the block on the exact reference path.

    A run's bus, even an empty one, counts as an observer, so every
    pop-collapsing fast path — wave coalescing, graph replay — stands down
    while it is set (:func:`repro.sim.engine.collapsible`).
    """
    with run_scope(bus=Bus()):
        yield


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def fabric(engine) -> Fabric:
    return Fabric(engine, ONE_NODE)


@pytest.fixture
def gpu(fabric) -> Device:
    return Device(fabric, 0)


@pytest.fixture
def one_node_world():
    with World(ONE_NODE) as world:
        yield world


@pytest.fixture
def two_node_world():
    with World(PAPER_TESTBED) as world:
        yield world


@pytest.fixture
def analyze():
    """Analyze in-memory ``{path: source}``; returns the findings."""

    def run(sources, only=None):
        return run_passes(Project.from_sources(sources), all_passes(), only=only)

    return run


def run_proc(engine: Engine, gen, name: str = "test"):
    """Spawn a generator process and run the engine until it finishes."""
    proc = engine.process(gen, name=name)
    return engine.run(proc)


def run_ranks(world: World, main, nprocs: int, *args):
    """Launch an MPI job in a world and return per-rank results."""
    return world.run(main, nprocs=nprocs, args=args)
