"""The sweep grid and its content-addressed cache."""

import json

import pytest

from repro.workload.cli import main_sweep
from repro.workload.replay import ReplayWorkload, parse_jsonl
from repro.workload.sweep import SweepCache, cell_key, run_sweep
from repro.workload.base import WorkloadError

SCHED = (
    '{"schema": "repro.workload.replay/1", "ranks": 2, "name": "tiny"}\n'
    '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a"}\n'
    '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}\n'
)


def _workload():
    return ReplayWorkload(parse_jsonl(SCHED, source="tiny.jsonl"))


def test_sweep_grid_and_cache_hits(tmp_path):
    cache = str(tmp_path / "cache")
    wl = _workload()
    kwargs = dict(
        workloads=[wl], machines=["gh200-1x4", "gh200-2x4"],
        policies=["single", "multi"], cache_dir=cache,
    )
    first = run_sweep(**kwargs)
    assert len(first["cells"]) == 4
    assert first["misses"] == 4 and first["hits"] == 0
    second = run_sweep(**kwargs)
    assert second["hits"] == 4 and second["misses"] == 0
    for a, b in zip(first["cells"], second["cells"]):
        assert a["key"] == b["key"]
        assert a["result"] == b["result"]
        assert not a["cached"] and b["cached"]


def test_sweep_no_cache(tmp_path):
    grid = run_sweep(
        workloads=[_workload()], machines=["gh200-1x4"], cache_dir=None,
    )
    assert grid["misses"] == 1 and grid["hits"] == 0


def test_cell_key_sensitivity():
    wl = _workload()
    base = cell_key("gh200-1x4", wl, "single")
    assert cell_key("gh200-2x4", wl, "single") != base       # machine axis
    assert cell_key("gh200-1x4", wl, "multi") != base        # policy axis
    assert cell_key("gh200-1x4", wl, None) != base           # default policy
    other = ReplayWorkload(parse_jsonl(SCHED.replace("4096", "8192"),
                                       source="tiny.jsonl"))
    assert cell_key("gh200-1x4", other, "single") != base    # content axis
    # Same content parsed from a different source string: same key.
    same = ReplayWorkload(parse_jsonl(SCHED, source="elsewhere.jsonl"))
    assert cell_key("gh200-1x4", same, "single") == base


def test_sweep_rejects_empty_axes():
    with pytest.raises(WorkloadError, match="at least one workload"):
        run_sweep(workloads=[], machines=["gh200-1x4"], cache_dir=None)
    with pytest.raises(WorkloadError, match="at least one machine"):
        run_sweep(workloads=[_workload()], machines=[], cache_dir=None)


def test_sweep_cache_lru_eviction(tmp_path):
    import os

    from repro.workload.sweep import SweepCache, cell_key

    wl = _workload()
    result = wl.run(machine="gh200-1x4")
    blob = len(__import__("json").dumps(result.as_dict())) + 10
    cache = SweepCache(str(tmp_path / "cache"), max_bytes=2 * blob)
    keys = [cell_key("gh200-1x4", wl, p) for p in ("a", "b", "c")]
    for i, key in enumerate(keys):
        cache.store(key, result)
        os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
    cache.store(cell_key("gh200-1x4", wl, "d"), result)
    assert cache.evicted >= 1
    assert cache.load(keys[0]) is None           # oldest evicted first
    assert cache.load(cell_key("gh200-1x4", wl, "d")) is not None


def test_sweep_cache_hit_touches_entry(tmp_path):
    import os

    from repro.workload.sweep import SweepCache, cell_key

    wl = _workload()
    result = wl.run(machine="gh200-1x4")
    cache = SweepCache(str(tmp_path / "cache"))
    key = cell_key("gh200-1x4", wl, None)
    cache.store(key, result)
    os.utime(cache._path(key), (1000.0, 1000.0))
    assert cache.load(key) is not None
    assert os.stat(cache._path(key)).st_mtime > 1000.0


def test_oversized_single_entry_still_caches(tmp_path):
    from repro.workload.sweep import SweepCache, cell_key

    wl = _workload()
    result = wl.run(machine="gh200-1x4")
    cache = SweepCache(str(tmp_path / "cache"), max_bytes=1)
    key = cell_key("gh200-1x4", wl, None)
    cache.store(key, result)                     # exempt: just written
    assert cache.load(key) is not None


@pytest.mark.parametrize("max_bytes", [0, -1])
def test_non_positive_cache_cap_rejected(tmp_path, max_bytes):
    from repro.workload.sweep import SweepCache

    with pytest.raises(WorkloadError, match="must be > 0"):
        SweepCache(str(tmp_path / "cache"), max_bytes=max_bytes)


def test_registry_names_resolve_in_sweep(tmp_path):
    grid = run_sweep(
        workloads=["striping"], machines=["gh200-2x4"],
        cache_dir=str(tmp_path / "cache"),
    )
    res = grid["cells"][0]["result"]
    assert res["workload"] == "striping"
    assert res["events_popped"] > 0


def _without_series_title(doc):
    del doc["series"]["title"]
    return doc


#: Cache documents that are JSON but not a cell, each applied to a valid
#: cell's ``as_dict()``.
CORRUPT_CELLS = {
    "empty-object": lambda doc: {},
    "list": lambda doc: [1, 2],
    "series-without-title": _without_series_title,
}


@pytest.mark.parametrize("corrupt", list(CORRUPT_CELLS.values()), ids=list(CORRUPT_CELLS))
def test_corrupt_cache_cell_raises_workload_error(tmp_path, corrupt):
    wl = _workload()
    cache = SweepCache(str(tmp_path / "cache"))
    key = cell_key("gh200-1x4", wl, None)
    cache.store(key, wl.run(machine="gh200-1x4"))
    path = cache._path(key)
    with open(path) as fh:
        doc = json.load(fh)
    with open(path, "w") as fh:
        json.dump(corrupt(doc), fh)
    with pytest.raises(WorkloadError, match="corrupt sweep cache entry"):
        cache.load(key)


def test_sweep_cli_reports_a_corrupt_cache_cell(tmp_path, capsys):
    sched = tmp_path / "tiny.jsonl"
    sched.write_text(SCHED)
    cache = tmp_path / "cache"
    argv = ["--workloads", f"replay:{sched}", "--machines", "gh200-1x4",
            "--cache-dir", str(cache)]
    assert main_sweep(argv) == 0
    (cell,) = cache.glob("*.json")
    cell.write_text("[1, 2]\n")
    capsys.readouterr()
    assert main_sweep(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep error: corrupt sweep cache entry ")
    assert "Traceback" not in err
