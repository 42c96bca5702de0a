"""The run scope: fields inherit, nesting rules hold, and the outer run
always comes back."""

import pytest

from repro.hw.faults import FaultEvent, FaultSchedule
from repro.obs.bus import Bus
from repro.san.record import Recorder
from repro.sim.run import Run, current, run_scope

_VALUES = {
    "policy": lambda: "multi",
    "faults": lambda: FaultSchedule([FaultEvent(1.0, "nvl0->1", "down")]),
    "bus": Bus,
    "recorder": Recorder,
}


@pytest.mark.parametrize("field", sorted(_VALUES))
def test_raising_block_restores_the_outer_run(field):
    value = _VALUES[field]()
    with pytest.raises(RuntimeError, match="boom"):
        with run_scope(**{field: value}) as run:
            assert current() is run and getattr(run, field) is value
            raise RuntimeError("boom")
    assert current() == Run()


def test_unset_fields_inherit_the_outer_run():
    bus = Bus()
    with run_scope(policy="congestion", bus=bus):
        with run_scope(policy="multi") as inner:
            assert inner == Run("multi", None, bus)
        assert current() == Run("congestion", None, bus)


def test_second_recorder_rejected():
    with run_scope(recorder=Recorder()):
        with pytest.raises(RuntimeError, match="Sanitizers do not nest"):
            with run_scope(recorder=Recorder()):
                pass  # pragma: no cover
