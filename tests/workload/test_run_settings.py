"""A run's policy and faults reach its fabrics through one run scope, which
leaves no process state behind — not even when the run raises."""

import os
import re
from pathlib import Path

import pytest

from repro.bench.series import Series
from repro.dataplane import MultiPathPolicy, SinglePathPolicy
from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.params import ONE_NODE
from repro.mpi.world import World
from repro.obs.bus import Bus
from repro.sim.run import Run, current, run_scope
from repro.workload.base import ExecOutcome, Workload, WorkloadError
from repro.workload.registry import resolve_spec

SCHEDULES = Path(__file__).resolve().parents[2] / "examples" / "schedules"


class _Probe(Workload):
    """Builds one World and records what the run looked like inside."""

    name = "settings-probe"
    default_machine = ONE_NODE

    def __init__(self, fail=False):
        self.fail = fail
        self.seen = {}

    def _execute(self, machine, shards, **params):
        with World(machine) as world:
            self.seen["engine"] = world.engine
            self.seen["policy"] = world.fabric.dataplane.policy
            self.seen["armed"] = world.fabric.link_state.armed
        self.seen["run"] = current()
        self.seen["environ"] = dict(os.environ)
        if self.fail:
            raise RuntimeError("workload crashed")
        return ExecOutcome(series=Series(self.name, "probe", ["x"]))


def test_run_policy_reaches_fabrics_without_touching_environ():
    before = dict(os.environ)
    probe = _Probe()
    result = probe.run(policy="multi")
    assert result.policy == "multi"
    assert isinstance(probe.seen["policy"], MultiPathPolicy)
    assert probe.seen["environ"] == before
    assert dict(os.environ) == before
    with World(ONE_NODE) as world:
        assert isinstance(world.fabric.dataplane.policy, SinglePathPolicy)
    assert current() == Run()


def test_raising_run_restores_outer_settings():
    outer = FaultSchedule([FaultEvent(1.0, "nvl0->1", "down")])
    inner = FaultSchedule([FaultEvent(2.0, "nvl0->1", "down")])
    probe = _Probe(fail=True)
    with run_scope(policy="congestion", faults=outer):
        with pytest.raises(RuntimeError, match="workload crashed"):
            probe.run(policy="multi", faults=inner)
        assert current() == Run("congestion", outer)
    assert current() == Run()
    # inside the run: its own policy and faults
    assert probe.seen["run"] == Run("multi", inner)
    assert isinstance(probe.seen["policy"], MultiPathPolicy)
    assert probe.seen["armed"]


def test_workload_run_loads_a_fault_path(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"t": 0.5, "link": "nvl0->1", "action": "down"}\n')
    probe = _Probe()
    probe.run(faults=str(path))
    sched = probe.seen["run"].faults
    assert len(sched) == 1 and sched.events[0].link == "nvl0->1"
    assert probe.seen["armed"]


def test_nested_run_gets_its_own_policy_under_the_outer_bus():
    """A nested Workload.run(policy="multi") inside an observed single-path
    run builds multi-path fabrics, and the outer bus sees their engines."""
    bus = Bus()
    probe = _Probe()
    with run_scope(policy="single", bus=bus):
        probe.run(policy="multi")
        assert current() == Run("single", None, bus)
    assert isinstance(probe.seen["policy"], MultiPathPolicy)
    assert probe.seen["run"] == Run("multi", None, bus)
    assert probe.seen["engine"] in bus.engines


def test_unknown_parameter_raises_before_the_body_runs():
    probe = _Probe()
    with pytest.raises(WorkloadError, match=r"'settings-probe' has no parameter foo; known: none"):
        probe.run(foo=1)
    assert probe.seen == {}


@pytest.mark.parametrize("spec, params, known", [
    ("halo", {"itres": 9}, "iters, chunks"),
    ("pingpong", {"iters": 2, "foo": 1}, "iters"),
    ("fig4", {"multipliers": (1,)}, "grids"),
    ("replay:" + str(SCHEDULES / "llm16.jsonl"), {"steps": 1}, "none"),
], ids=["halo", "pingpong", "fig4", "replay"])
def test_unknown_parameter_names_the_workload_and_its_parameters(spec, params, known):
    wl = resolve_spec(spec)
    with pytest.raises(WorkloadError, match=rf"{re.escape(repr(wl.name))} has no parameter") as err:
        wl.run(**params)
    assert f"known: {known}" in str(err.value)
