"""A run's policy, faults and route store reach its fabrics through one
scope, which leaves no process state behind — not even when the run raises."""

import os

import pytest

from repro.bench.series import Series
from repro.dataplane import MultiPathPolicy, SinglePathPolicy
from repro.hw.faults import FaultEvent, FaultSchedule
from repro.hw.params import ONE_NODE
from repro.hw.topology import FabricSettings, fabric_settings
from repro.mpi.world import World
from repro.workload.base import ExecOutcome, Workload
from repro.workload.sweep import RouteCacheStore

from ..conftest import current_settings


class _Probe(Workload):
    """Builds one World and records what the run looked like inside."""

    name = "settings-probe"
    default_machine = ONE_NODE

    def __init__(self, fail=False):
        self.fail = fail
        self.seen = {}

    def _execute(self, machine, shards, **params):
        with World(machine) as world:
            self.seen["policy"] = world.fabric.dataplane.policy
            self.seen["armed"] = world.fabric.link_state.armed
        self.seen["settings"] = current_settings()
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
    assert current_settings() == FabricSettings()


def test_raising_run_restores_outer_settings(tmp_path):
    outer = FaultSchedule([FaultEvent(1.0, "nvl0->1", "down")])
    inner = FaultSchedule([FaultEvent(2.0, "nvl0->1", "down")])
    store = RouteCacheStore(str(tmp_path / "routes"))
    probe = _Probe(fail=True)
    with fabric_settings(policy="congestion", faults=outer, routes=store):
        with pytest.raises(RuntimeError, match="workload crashed"):
            probe.run(policy="multi", faults=inner)
        assert current_settings() == FabricSettings("congestion", outer, store)
    assert current_settings() == FabricSettings()
    # inside the run: its own policy and faults, the sweep's route store
    assert probe.seen["settings"] == FabricSettings("multi", inner, store)
    assert isinstance(probe.seen["policy"], MultiPathPolicy)
    assert probe.seen["armed"]
