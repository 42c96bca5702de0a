"""Parser fuzz: every generated replay or fault document either parses or
fails with its parser's typed ``source:line:`` error, and what parses
holds only finite, non-boolean times.

Each case takes a valid one-step replay document (after a header) or a
valid one-event fault document and gives one of its fields generated
values: ints, floats including NaN, +-Infinity and the overflowing
literal ``1e400``, booleans, strings, lists and objects.  Tier-1 runs the
default hypothesis profile; ``scripts/ci.sh`` reruns this file under
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.faults import FaultError, FaultSchedule
from repro.workload.replay import SCHEMA, ReplayError, parse_jsonl

_SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.booleans(),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
#: JSON text of a value, with the non-finite numbers and booleans drawn as
#: often as everything else (the literal 1e400 overflows to inf).
_ANY = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "false"]),
    _VALUES.map(json.dumps),
)

# Valid documents; values are JSON text.
_HEADER = {"schema": json.dumps(SCHEMA), "ranks": "2"}
_STEPS = {
    "compute": {"rank": "0", "op": '"compute"', "us": "1.5", "id": '"s"', "deps": "[]"},
    "xfer": {"rank": "0", "op": '"xfer"', "bytes": "8", "src_gpu": "0", "dst_node": "0",
             "class": '"c"'},
    "allreduce": {"rank": "1", "op": '"allreduce"', "bytes": "64", "group": "[1]"},
    "partitioned": {"rank": "0", "op": '"partitioned"', "peer": "1", "bytes": "8",
                    "partitions": "2", "tag": '"a"'},
}
#: Each step field, fuzzed in the first document above that has it.
_STEP_FIELDS = {}
for _op, _step in _STEPS.items():
    for _field in _step:
        _STEP_FIELDS.setdefault(_field, _op)
_EVENT = {"t": "0.001", "link": '"nvl0->1"', "action": '"degrade"', "factor": "0.5",
          "node": "0"}

_TYPED = re.compile(r"fuzz\.jsonl:\d+: ")


def _line(doc: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in doc.items()) + "}"


def _finite(value) -> bool:
    return not isinstance(value, bool) and math.isfinite(float(value))


@pytest.mark.parametrize("op,field", [("header", "ranks")] + [
    (op, field) for field, op in _STEP_FIELDS.items()
])
@given(value=_ANY)
@settings(deadline=None)
def test_replay_parser_parses_or_fails_typed(op, field, value):
    header = dict(_HEADER)
    step = dict(_STEPS["compute" if op == "header" else op])
    (header if op == "header" else step)[field] = value
    try:
        sched = parse_jsonl(f"{_line(header)}\n{_line(step)}\n", source="fuzz.jsonl")
    except ReplayError as exc:
        assert _TYPED.match(str(exc)), str(exc)
        return
    for s in sched.steps:
        if s.op == "compute":
            assert _finite(s["us"]) and s["us"] >= 0


@pytest.mark.parametrize("field", list(_EVENT))
@given(value=_ANY)
@settings(deadline=None)
def test_fault_parser_parses_or_fails_typed(field, value):
    try:
        sched = FaultSchedule.parse_jsonl(
            _line(dict(_EVENT, **{field: value})) + "\n", source="fuzz.jsonl"
        )
    except FaultError as exc:
        assert _TYPED.match(str(exc)), str(exc)
        return
    for ev in sched:
        assert _finite(ev.t) and ev.t >= 0
        assert ev.factor is None or _finite(ev.factor)
        assert ev.node is None or not isinstance(ev.node, bool)
