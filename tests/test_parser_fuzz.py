"""Parser fuzz: every generated input either parses or fails with its
parser's typed error, and what parses holds only well-formed values.

The replay and fault JSONL cases take a valid one-step replay document
(after a header) or a valid one-event fault document, and the sweep-cache
case a valid cached cell, and give one of its fields generated values:
ints, floats including NaN, +-Infinity and the overflowing literal
``1e400``, booleans, strings, lists and objects.  A cell only has to load
or fail typed; the values it loads are not checked.  The
machine-name, Chrome-trace and NCCL-log cases generate whole inputs from
their grammars plus noise.  ``tests/fixtures/parser_fuzz.json`` keeps the
shrunk inputs that once escaped with an untyped error or parsed when they
should not have; :func:`test_saved_fuzz_failures_stay_fixed` replays them.
Tier-1 runs the default hypothesis profile; ``scripts/ci.sh`` reruns this
file under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.series import Series
from repro.hw.faults import FaultError, FaultSchedule
from repro.hw.spec.generators import parse_machine
from repro.hw.spec.schema import MachineSpec, SpecError
from repro.workload.base import WorkloadError, WorkloadResult
from repro.workload.generators import parse_nccl_log
from repro.workload.replay import SCHEMA, ReplayError, from_chrome, parse_jsonl
from repro.workload.sweep import SweepCache

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


# -- machine names ---------------------------------------------------------------

_NUMBER = st.one_of(
    st.integers(0, 4096).map(str),
    st.integers(0, 512).map(lambda n: f"0{n}"),  # zero-led
    st.text("0123456789", min_size=1, max_size=4),
)
_MACHINE_NAMES = st.one_of(
    st.builds(
        lambda kind, gpus, opts, tail: f"{kind}-{gpus}{''.join(opts)}{tail}",
        st.sampled_from(["fat-tree", "dragonfly", "fat-tree-", "dragon"]),
        _NUMBER,
        st.lists(st.builds("-{}{}".format, st.sampled_from("rnlsgx"), _NUMBER), max_size=3),
        st.sampled_from(["", "\n", "\r\n", " ", "-", "x"]),
    ),
    st.text(max_size=24),
)
#: The one spelling of a generated machine: no leading zero, nothing around it.
_CANONICAL_MACHINE = re.compile(r"(fat-tree|dragonfly)-[1-9]\d*(-[a-z][1-9]\d*)*")


def _check_machine(name: str) -> None:
    try:
        spec = parse_machine(name)
    except SpecError:
        return
    if spec is not None:
        assert isinstance(spec, MachineSpec) and spec.name == name
        assert _CANONICAL_MACHINE.fullmatch(name), repr(name)


@given(name=_MACHINE_NAMES)
@settings(deadline=None)
def test_machine_names_parse_or_fail_typed(name):
    _check_machine(name)


# -- Chrome traces -----------------------------------------------------------------

_MISSING = object()
#: A dataplane instant as ``repro.obs.chrome`` exports it.
_DP_EVENT = {"ph": "i", "cat": "dataplane", "name": "d", "ts": 1.5, "pid": 0, "tid": 0}
_DP_ARGS = {"cls": "c", "nbytes": 8, "src_gpu": 0, "src_node": 0, "dst_gpu": 1, "dst_node": 0}
_NOT_DP = {"ph": "X", "cat": "kernel", "name": "k", "ts": 0, "dur": 1}
_CHROME_VALUES = st.one_of(st.just(_MISSING), _VALUES)


def _trace(where: str, key: str, value) -> object:
    """A valid two-transfer trace with the first transfer's (``where="event"``
    or ``"args"``), the event list's or the whole trace's ``key`` set to
    ``value`` (deleted for ``_MISSING``)."""
    args = dict(_DP_ARGS)
    event = dict(_DP_EVENT, args=args)
    target = {"args": args, "event": event}.get(where)
    if target is not None:
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
    later = dict(_DP_EVENT, ts=2.5, args=dict(_DP_ARGS))
    trace = {"traceEvents": [_NOT_DP, event, later], "displayTimeUnit": "ns"}
    if where == "trace":
        return trace if value is _MISSING else value
    if where == "traceEvents":
        trace["traceEvents"] = None if value is _MISSING else value
    return trace


def _check_chrome(trace, per_event: bool) -> None:
    try:
        sched = from_chrome(trace, name="fuzz")
    except ReplayError as exc:
        # An error in the fuzzed event names its index in traceEvents.
        prefix = "<fuzz>: traceEvents[1]: " if per_event else "<fuzz>: "
        assert str(exc).startswith(prefix), str(exc)
        return
    for s in sched.steps:
        assert isinstance(s["bytes"], int) and not isinstance(s["bytes"], bool)
        assert s["bytes"] >= 1
        for key in ("src_gpu", "src_node", "dst_gpu", "dst_node"):
            if key in s.fields:
                assert isinstance(s[key], int) and not isinstance(s[key], bool)


@pytest.mark.parametrize("where,key", [("trace", ""), ("traceEvents", "")]
                         + [("event", k) for k in ("ph", "cat", "ts", "args")]
                         + [("args", k) for k in _DP_ARGS])
@given(value=_CHROME_VALUES)
@settings(deadline=None)
def test_chrome_ingest_parses_or_fails_typed(where, key, value):
    _check_chrome(_trace(where, key, value), per_event=where in ("event", "args"))


# -- NCCL-style logs ---------------------------------------------------------------

_LOG_VALUE = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["", "nan", "inf", "1e400", "0,1", "1,,2", "x", "-"]),
    st.text(max_size=4),
)
_LOG_KEY = st.sampled_from(["bytes", "peer", "root", "group", "us", "class", "tag", "x"])
_LOG_LINE = st.builds(
    lambda rank, op, kvs: " ".join([rank, op] + [f"{k}={v}" for k, v in kvs]),
    st.one_of(st.integers(-1, 3), st.integers(0, 10**12)).map(str) | st.text(max_size=3),
    st.sampled_from(["AllReduce", "Send", "Recv", "Broadcast", "Compute", "Frob"]),
    st.lists(st.tuples(_LOG_KEY, _LOG_VALUE), max_size=4),
)


def _repeats_a_key(text: str) -> bool:
    for raw in text.splitlines():
        keys = [t.split("=", 1)[0] for t in raw.split("#", 1)[0].split()[2:]]
        if len(keys) != len(set(keys)):
            return True
    return False


def _check_nccl(text: str) -> None:
    try:
        sched = parse_nccl_log(text, source="fuzz.log")
    except ReplayError as exc:
        assert re.match(r"fuzz\.log:\d+: ", str(exc)), str(exc)
        return
    assert not _repeats_a_key(text), text
    for s in sched.steps:
        if s.op == "compute":
            assert _finite(s["us"]) and s["us"] >= 0


#: A valid log; the token test appends one generated token to one line.
_LOG = [
    "0 Compute us=1.5",
    "0 Send peer=1 bytes=8 tag=a",
    "1 Recv peer=0 tag=a",
    "0 AllReduce bytes=64 group=0,1",
    "1 AllReduce bytes=64 group=0,1",
    "0 Broadcast root=0 bytes=4",
    "1 Broadcast root=0 bytes=4",
]


@given(lines=st.lists(_LOG_LINE, min_size=1, max_size=4))
@settings(deadline=None)
def test_nccl_log_parses_or_fails_typed(lines):
    _check_nccl("\n".join(lines) + "\n")


@pytest.mark.parametrize("index", range(len(_LOG)))
@given(key=_LOG_KEY, value=_LOG_VALUE)
@settings(deadline=None)
def test_nccl_log_token_parses_or_fails_typed(index, key, value):
    lines = list(_LOG)
    lines[index] += f" {key}={value}"
    _check_nccl("\n".join(lines) + "\n")


# -- sweep-cache cells -------------------------------------------------------------

#: A valid cached cell's top-level fields; values are JSON text.
_CELL = {k: json.dumps(v) for k, v in WorkloadResult(
    workload="w", machine="gh200-1x4", policy="default", mode="world",
    series=Series("Fig 0", "t", ["x"], rows=[{"x": 1}], notes=["n"]),
    digests={"series": "0" * 64}, events_popped=1, class_bytes={"c": 8},
).as_dict().items()}


@pytest.mark.parametrize("field", list(_CELL))
@given(value=_ANY)
@settings(deadline=None)
def test_sweep_cache_cell_loads_or_fails_typed(field, value):
    with tempfile.TemporaryDirectory() as root:
        cache = SweepCache(root)
        Path(cache._path("k")).write_text(_line(dict(_CELL, **{field: value})) + "\n")
        try:
            result = cache.load("k")
        except WorkloadError as exc:
            assert str(exc).startswith("corrupt sweep cache entry "), str(exc)
            return
    assert isinstance(result, WorkloadResult)


# -- saved failures ----------------------------------------------------------------

_SAVED = json.loads((Path(__file__).parent / "fixtures" / "parser_fuzz.json").read_text())
_CHECKS = {
    "machine": _check_machine,
    "chrome": lambda doc: _check_chrome(doc["trace"], doc["per_event"]),
    "nccl": _check_nccl,
}


@pytest.mark.parametrize("case", _SAVED, ids=[c["id"] for c in _SAVED])
def test_saved_fuzz_failures_stay_fixed(case):
    _CHECKS[case["parser"]](case["input"])
