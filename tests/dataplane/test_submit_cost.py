"""The Python calls one transfer costs the host, pinned.

Counts Python-level ``call`` events (``sys.setprofile``) for one warm,
unobserved single-path ``control()`` submit and for one warm ``put()``
run to completion on ``ONE_NODE``.  A change that puts a layer back on
the transfer path (a wrapper, a per-hop method call, a per-submit
object with an ``__init__``) raises a count and fails here; a change
that removes one lowers it, and re-pins it.  The counts hold for the
Python minor version they were measured on (builtins differ across
versions), so the test skips on any other.
"""

import os
import sys

import numpy as np
import pytest

from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.hw.topology import Fabric
from repro.sim.engine import Engine

#: The Python minor version the counts below were measured on.
PINNED_PYTHON = (3, 11)
#: ``Dataplane.control`` submit: control, descriptor init, submit,
#: validate, execute, route, route key, plan, ledger, transfer init.
CONTROL_SUBMIT_CALLS = 10
#: ``Dataplane.put`` submit plus ``Engine.run`` to the payload's arrival:
#: the submit's 12, then the run and five transfer stages with their
#: port grant, waiter wake-ups and payload copy.
PUT_TO_COMPLETION_CALLS = 22

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != PINNED_PYTHON,
    reason=f"call counts are pinned on Python {PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}",
)


def _calls(fn):
    """Python-level calls (``call`` events, generator resumes included),
    leaving out NumPy's own Python wrappers, which vary by NumPy version."""
    count = 0
    numpy_dir = os.path.dirname(np.__file__)

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and not frame.f_code.co_filename.startswith(numpy_dir):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1  # setprofile(None) itself is not a call event; fn is


def _warm():
    engine = Engine()
    fab = Fabric(engine, ONE_NODE)
    src = Buffer.alloc(64, space=MemSpace.DEVICE, node=0, gpu=0, fill=1.0)
    dst = Buffer.alloc(64, space=MemSpace.DEVICE, node=0, gpu=1)
    fab.dataplane.put(src, dst)
    fab.dataplane.control(src, dst, nbytes=64)
    engine.run()  # the route is cached, every lazily built link exists
    return engine, fab.dataplane, src, dst


def test_control_submit_call_count():
    engine, dp, src, dst = _warm()
    assert engine.obs is None and type(dp.policy).__name__ == "SinglePathPolicy"
    calls = _calls(lambda: dp.control(src, dst, nbytes=64))
    assert calls == CONTROL_SUBMIT_CALLS


def test_put_to_completion_call_count():
    engine, dp, src, dst = _warm()
    src.data[:] = 2.0

    def put_and_run():
        dp.put(src, dst)
        engine.run()

    calls = _calls(put_and_run)
    assert (dst.data == 2.0).all()
    assert calls == PUT_TO_COMPLETION_CALLS
