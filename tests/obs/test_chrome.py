"""Chrome trace_event export: structure, track naming, schema validation."""

import pytest

from repro.obs.bus import COUNTER, INSTANT, SPAN, ObsEvent
from repro.obs.chrome import chrome_trace, validate_trace
from repro.obs.profile import Collector


def _ev(kind, cat, name, actor=None, t0=0.0, t1=None, seq=1, **payload):
    return ObsEvent(kind, cat, name, actor, t0, t0 if t1 is None else t1, seq, payload)


def _kept(*events):
    """Events as a retaining subscriber keeps them (payloads labelled)."""
    collector = Collector()
    for ev in events:
        collector.on_event(ev)
    return collector.events


def test_span_becomes_complete_event_in_microseconds():
    obj = chrome_trace([_ev(SPAN, "kernel", "vec_add", ("gpu", "gpu0"),
                            t0=1e-6, t1=3e-6, grid=4)])
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 1
    assert xs[0]["name"] == "vec_add"
    assert xs[0]["ts"] == pytest.approx(1.0)
    assert xs[0]["dur"] == pytest.approx(2.0)
    assert xs[0]["args"] == {"grid": 4}


def test_one_named_track_per_actor():
    obj = chrome_trace([
        _ev(SPAN, "kernel", "k", ("gpu", "gpu0"), t0=0.0, t1=1.0, seq=1),
        _ev(SPAN, "pe", "rts", ("pe", 0), t0=0.0, t1=1.0, seq=2),
        _ev(SPAN, "link", "nvl0->1", None, t0=0.0, t1=1.0, seq=3),
    ])
    meta = {e["args"]["name"]: e["tid"]
            for e in obj["traceEvents"] if e["ph"] == "M"}
    # Actor tracks use san.record naming; anonymous events group by category.
    assert set(meta) == {"gpu(gpu0)", "pe(0)", "link"}
    tids = [e["tid"] for e in obj["traceEvents"] if e["ph"] == "X"]
    assert sorted(tids) == sorted(meta.values())


def test_engine_steps_excluded_unless_asked():
    events = [
        _ev(INSTANT, "engine", "step", seq=1, prio=0),
        _ev(INSTANT, "mpi", "am-rts", ("pe", 0), seq=2),
    ]
    names = [e["name"] for e in chrome_trace(events)["traceEvents"]]
    assert "step" not in names and "am-rts" in names
    names = [e["name"]
             for e in chrome_trace(events, include=("engine",))["traceEvents"]]
    assert "step" in names


def test_counter_keeps_numeric_args_only():
    obj = chrome_trace([_ev(COUNTER, "stream", "s0", seq=1, depth=3, note="x")])
    cs = [e for e in obj["traceEvents"] if e["ph"] == "C"]
    assert cs[0]["args"] == {"depth": 3}


def test_object_payloads_degrade_to_labels():
    class Buf:
        label = "gpu0.buf1"

    raw = _ev(INSTANT, "san", "access", ("gpu", 0), seq=1, buf=Buf(), write=True)
    obj = chrome_trace(_kept(raw))
    ev = [e for e in obj["traceEvents"] if e["ph"] == "i"][0]
    assert ev["args"] == {"buf": "<gpu0.buf1>", "write": True}
    assert ev["s"] == "t"
    assert isinstance(raw.get("buf"), Buf)  # the published event is untouched


def test_payload_keys_are_sorted_at_export():
    obj = chrome_trace(_kept(_ev(SPAN, "kernel", "k", t1=1.0, zeta=1, alpha=2, mid=3)))
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert list(xs[0]["args"]) == ["alpha", "mid", "zeta"]


def test_exporter_roundtrip_validates(tmp_path):
    import json

    events = _kept(_ev(SPAN, "link", "nvl0->1", t0=0.0, t1=1e-6, nbytes=64))
    out = tmp_path / "t.json"
    out.write_text(json.dumps(chrome_trace(events)))
    obj = json.loads(out.read_text())
    validate_trace(obj)
    assert obj["otherData"]["source"] == "repro.obs"


@pytest.mark.parametrize("bad,msg", [
    ([], "traceEvents"),
    ({"traceEvents": [{"ph": "Q", "name": "x", "pid": 0, "ts": 0}]}, "phase"),
    ({"traceEvents": [{"ph": "i", "pid": 0, "ts": 0}]}, "name"),
    ({"traceEvents": [{"ph": "i", "name": "x", "ts": 0}]}, "pid"),
    ({"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "ts": -1}]}, "ts"),
    ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 0}]}, "dur"),
    ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "ts": 0}]}, "args"),
], ids=["no-list", "bad-ph", "no-name", "no-pid", "neg-ts", "no-dur", "no-args"])
def test_validate_rejects_malformed(bad, msg):
    with pytest.raises(ValueError, match=msg):
        validate_trace(bad)
