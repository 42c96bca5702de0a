"""SinglePathPolicy must reproduce the pre-dataplane seed byte-for-byte.

The refactor's central promise: with the default policy (or an explicit
``policy="single"`` setting) every producer's traffic takes the exact
event sequence it took before the dataplane existed — pinned against the
seed's SHA-256 sanitizer digests from tests/sim/test_determinism.py.
"""

import hashlib

from repro.hw.params import ONE_NODE
from repro.hw.topology import fabric_settings
from repro.mpi.world import World
from repro.san import Sanitizer

from tests.sim.test_determinism import _SEED_TRACES, _workload


def _digest():
    with Sanitizer() as san:
        _workload(World(ONE_NODE))
    assert san.report.ok
    return hashlib.sha256(san.trace_bytes()).hexdigest()


def test_default_policy_matches_seed_digest():
    assert _digest() == _SEED_TRACES["one-node"]


def test_explicit_single_matches_seed_digest():
    with fabric_settings(policy="single"):
        assert _digest() == _SEED_TRACES["one-node"]


def test_ledger_sees_the_seed_workload():
    """Accounting is passive but present: the partitioned ping-pong's
    traffic shows up by class without perturbing the digest."""
    world = World(ONE_NODE)
    with Sanitizer() as san:
        _workload(world)
    assert san.report.ok
    ledger = world.fabric.dataplane.ledger
    assert ledger.total_bytes() > 0
    assert "rma" in ledger.classes  # the partitioned puts ride put_nbx
