"""The sweep grid and its content-addressed cache."""

import pytest

from repro.workload.replay import ReplayWorkload, parse_jsonl
from repro.workload.sweep import cell_key, run_sweep
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


def test_route_cache_store_warms_fresh_fabrics(tmp_path):
    from repro.hw.memory import Buffer, MemSpace
    from repro.hw.spec.generators import resolve_machine
    from repro.hw.topology import Fabric, fabric_settings
    from repro.sim.engine import Engine
    from repro.workload.sweep import RouteCacheStore

    spec = resolve_machine("gh200-1x4")

    def route_once(store):
        with fabric_settings(routes=store):
            fab = Fabric(Engine(), spec)
        src = Buffer.alloc(8, space=MemSpace.DEVICE, node=0, gpu=0)
        dst = Buffer.alloc(8, space=MemSpace.DEVICE, node=0, gpu=1)
        fab.route(src, dst)
        return fab

    cold = RouteCacheStore(str(tmp_path / "routes"))
    fab = route_once(cold)
    assert fab.route_computations == 1
    cold.flush()

    warm_store = RouteCacheStore(str(tmp_path / "routes"))
    fab2 = route_once(warm_store)
    assert warm_store.preloaded >= 1
    assert fab2.route_computations == 0          # served from the snapshot
    assert fab2.export_routes() == fab.export_routes()


def test_sweep_persists_routes_across_runs(tmp_path):
    import glob
    import os

    cache = str(tmp_path / "cache")
    kwargs = dict(workloads=[_workload()], machines=["gh200-1x4"],
                  cache_dir=cache)
    first = run_sweep(**kwargs)
    assert first["routes_preloaded"] == 0
    route_files = glob.glob(os.path.join(cache, "routes", "*.json"))
    assert route_files                           # snapshot written
    # Drop the cell cache but keep the route snapshots: the re-run
    # recomputes the cell yet reuses every previously resolved route.
    for path in glob.glob(os.path.join(cache, "*.json")):
        os.remove(path)
    second = run_sweep(**kwargs)
    assert second["misses"] == 1
    assert second["routes_preloaded"] > 0
    assert (first["cells"][0]["result"]["digests"]
            == second["cells"][0]["result"]["digests"])


def test_registry_names_resolve_in_sweep(tmp_path):
    grid = run_sweep(
        workloads=["striping"], machines=["gh200-2x4"],
        cache_dir=str(tmp_path / "cache"),
    )
    res = grid["cells"][0]["result"]
    assert res["workload"] == "striping"
    assert res["events_popped"] > 0
