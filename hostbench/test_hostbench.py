"""Checks on hostbench itself: ``PYTHONPATH=src python -m pytest hostbench -q``."""

from __future__ import annotations

import gc
import json
import re
import sys
from types import SimpleNamespace

import pytest

import run
import tracer
import units
from repro.workload.registry import get


@pytest.fixture(scope="module")
def traced():
    """Per workload: one untraced and one traced unit, and the tracer."""
    out = {}
    for name in units.WORKLOADS:
        runner = run.Runner(name, seed=0)
        untraced = runner.unit()
        with tracer.Tracer() as tr:
            traced_unit = runner.unit(tracer=tr)
        assert not runner.problems, runner.problems
        out[name] = SimpleNamespace(untraced=untraced, traced=traced_unit, tracer=tr)
        del runner
        gc.collect()
    return out


def test_workloads_match_benchmark_json():
    doc = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(units.WORKLOADS)


def test_untraced_units_match_expected(traced):
    expected = json.loads(run.EXPECTED.read_text())
    for name, t in traced.items():
        assert units.check(units.WORKLOADS[name], 0, t.untraced.fingerprint, expected) == []


def test_traced_digests_equal_untraced(traced):
    for name, t in traced.items():
        assert t.traced.fingerprint == t.untraced.fingerprint, name


def test_layer_self_times_sum_to_root(traced):
    for name, t in traced.items():
        total = sum(v["self_s"] for v in t.tracer.layer_totals().values())
        assert abs(total - t.tracer.root_s) <= 0.02 * t.tracer.root_s, (name, total)


def test_every_entry_point_is_called_somewhere(traced):
    # A zero here usually means callers bound the function by name from a
    # module the patch did not reach.
    idle = [
        key for key, _ in tracer.entry_points()
        if all(t.tracer.entries[key].calls == 0 for t in traced.values())
    ]
    assert idle == []
    # Process bodies count for the package that defines them.
    jacobi = traced["jacobi-eager"].tracer.entries
    assert jacobi["hw:transfer_process (process)"].calls > 0
    assert jacobi["apps:_jacobi_main (rank main)"].calls == 24


def test_dominant_layers(traced):
    totals = {name: t.tracer.layer_totals() for name, t in traced.items()}

    def largest(name):
        return max(totals[name], key=lambda layer: totals[name][layer]["self_s"])

    assert largest("jacobi-eager") == "sim"
    assert largest("partitioned-sweep") == "mpi"
    ar = traced["allreduce-payload"].tracer
    assert ar.entries["hw:Buffer.copy_from"].total_s \
        + totals["allreduce-payload"]["apps"]["self_s"] \
        > totals["allreduce-payload"]["sim"]["self_s"]
    assert totals["cluster-512"]["shard"]["calls"] > 0
    assert traced["cluster-512"].untraced.fingerprint["graphs"]["replayed_descriptors"] > 0


def _namespace() -> dict:
    """Every module attribute and class attribute of the repro packages."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in list(vars(value).items()):
                    out[(mod_name, attr, name)] = member
    return out


def _from_tracer(value) -> bool:
    fn = getattr(value, "__func__", value)
    code = getattr(fn, "__code__", None)
    return isinstance(value, tracer._Tally) or (
        code is not None and code.co_filename == tracer.__file__
    )


def test_patched_attributes_are_restored():
    workload = get("pingpong")
    workload.run()
    before = _namespace()
    with tracer.Tracer() as tr:
        tr.run(workload.run)
        assert tr.entries["workload:Workload.run"].calls == 1
        assert sum(_from_tracer(v) for v in _namespace().values()) > 0
    after = _namespace()
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert [k for k, v in after.items() if _from_tracer(v)] == []


def test_metric_names_match_benchmark_json(traced):
    t = traced["cluster-512"]
    layer = run.per_layer_metrics(
        t.tracer, t.untraced.fingerprint, t.untraced.raw_s, t.traced.raw_s)
    e2e = run.end_to_end_metrics({"wall_s": [1.0], "setup_s": [1.0], "peak_rss_mb": [1.0]})
    for kind, metrics in (("per_layer", layer), ("end_to_end", e2e)):
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in metrics)
        assert run._metrics_json(metrics, kind).keys() == run.declared(kind).keys()


def test_cluster_seed_1_is_rep_stable():
    runner = run.Runner("cluster-512", seed=1)
    first = runner.unit()
    second = runner.unit()
    assert not runner.problems, runner.problems
    assert first.fingerprint == second.fingerprint
    # The seed reached the generated schedules, and only them.
    pinned = json.loads(run.EXPECTED.read_text())["cluster-512"]["runs"]
    for label, got in first.fingerprint["runs"].items():
        same = got == pinned[label]
        assert same == (label in units.WORKLOADS["cluster-512"].fixed_runs), label
