"""Bench harness: series container, renderer, decimated smoke runs."""

import json

import pytest

from repro.bench.coll import measure_allreduce, measure_overheads
from repro.bench.p2p import auto_transport_partitions, measure_p2p_goodput
from repro.bench.series import Series, render
from repro.bench.suite import SUITE, main, next_pr, resolve_baseline, run_suite
from repro.hw.params import ONE_NODE
from repro.workload.exhibits import EXHIBIT_WORKLOADS
from repro.workload.registry import get, names


def test_series_add_and_columns():
    s = Series("T", "title", ["a", "b"])
    s.add(a=1, b=2.0)
    s.add(a=3, b=4.0)
    assert s.column("a") == [1, 3]
    assert s.column("b") == [2.0, 4.0]


def test_series_missing_column_rejected():
    s = Series("T", "title", ["a", "b"])
    with pytest.raises(ValueError):
        s.add(a=1)


def test_render_contains_everything():
    s = Series("Fig X", "demo", ["grid", "val"])
    s.add(grid=1, val=1.25)
    s.note("a note")
    out = render(s)
    assert "Fig X" in out and "demo" in out
    assert "grid" in out and "1.250" in out
    assert "a note" in out


def test_auto_transport_partitions_policy():
    assert auto_transport_partitions(1, "progression", False) == 1
    assert auto_transport_partitions(4096, "progression", False) == 1
    assert auto_transport_partitions(1, "progression", True) == 1
    assert auto_transport_partitions(4096, "progression", True) == 2
    assert auto_transport_partitions(64, "kernel_copy", False) == 2


def test_fig2_smoke_decimated():
    s = get("fig2").run(grids=(1, 256)).series
    assert len(s.rows) == 2
    assert s.rows[0]["sync_us"] == pytest.approx(7.8, abs=0.1)


def test_fig3_smoke_decimated():
    s = get("fig3").run(threads=(1, 1024)).series
    last = s.rows[-1]
    assert last["thread_us"] > last["warp_us"] > last["block_us"]


def test_fig4_smoke_single_point():
    s = get("fig4").run(grids=(16,)).series
    row = s.rows[0]
    assert row["kernel_copy"] > row["sendrecv"]


def test_exhibit_registry_complete():
    exhibits = [wl.name for wl in EXHIBIT_WORKLOADS]
    assert exhibits == [
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "table1", "fig8", "fig9", "fig10", "fig11",
    ]
    assert set(exhibits) <= set(names())
    for name in exhibits:
        assert get(name).__doc__.startswith(("Fig", "Table"))


def test_bench_suite_has_graph_replay_entries():
    assert "graph-replay-jacobi" in SUITE
    assert "graph-replay-llm16" in SUITE


def test_graph_replay_bench_entry_batches_pops():
    row = run_suite(["graph-replay-jacobi"])["graph-replay-jacobi"]
    assert row["graph_launches"] > 0
    assert row["events_graphed"] > 0
    # ISSUE acceptance: >= 3x fewer host pops than the eager equivalent.
    assert row["pop_batching_factor"] >= 3.0
    assert row["events_graphed"] >= 3 * row["cluster_events_popped"]
    assert row["msg_digest"]


def test_baseline_auto_picks_newest_but_never_the_runs_own_out(tmp_path, monkeypatch):
    for pr in (9, 10):
        (tmp_path / f"BENCH_pr{pr}.json").write_text("{}\n")
    newest, older = tmp_path / "BENCH_pr10.json", tmp_path / "BENCH_pr9.json"
    assert resolve_baseline(str(tmp_path)) == str(newest)
    assert resolve_baseline(str(tmp_path), exclude=str(newest)) == str(older)
    # `--against auto` resolves in the working directory; the --out file
    # is excluded whether it is named relatively or absolutely.
    monkeypatch.chdir(tmp_path)
    assert resolve_baseline("auto", exclude="/elsewhere/out.json").endswith("BENCH_pr10.json")
    assert resolve_baseline("auto", exclude="BENCH_pr10.json").endswith("BENCH_pr9.json")
    assert resolve_baseline("auto", exclude=str(newest)).endswith("BENCH_pr9.json")


def test_bare_bench_run_never_overwrites_a_baseline(tmp_path, monkeypatch, capsys):
    assert next_pr(str(tmp_path)) == 1
    for pr in (9, 10):
        (tmp_path / f"BENCH_pr{pr}.json").write_text("{}\n")
    assert next_pr(str(tmp_path)) == 11
    monkeypatch.chdir(tmp_path)
    assert main(["--suite", "pingpong"]) == 0
    assert (tmp_path / "BENCH_pr10.json").read_text() == "{}\n"
    assert json.loads((tmp_path / "BENCH_pr11.json").read_text())["pr"] == 11
    assert "wrote BENCH_pr11.json" in capsys.readouterr().out


def test_shards_flag_does_not_outlive_its_bench_run(tmp_path):
    """--shards applies to its own run only: a later run_suite in the
    same process is back on the sequential driver, with the same digest."""
    out = tmp_path / "bench.json"
    assert main(["--suite", "cluster-fattree-512", "--shards", "2", "--out", str(out)]) == 0
    sharded = json.loads(out.read_text())["suite"]["cluster-fattree-512"]
    assert sharded["mode"] == "mp"
    row = run_suite(["cluster-fattree-512"])["cluster-fattree-512"]
    assert row["mode"] == "sequential"
    assert row["msg_digest"] == sharded["msg_digest"]


def test_fault_reroute_lands_between_healthy_and_single_path():
    """Dynamic-fabric acceptance bounds (DESIGN.md §17): the faulted run
    lands strictly between the healthy multipath and single-path
    timings, recovers via both tiers, and loses no chunk."""
    r = get("fault-reroute").run().extra
    assert r["healthy_us"] < r["faulted_us"] < r["single_us"], r
    assert r["reroutes"] > 0 and r["replanned"] > 0, r
    assert r["faults"] == 0 and r["faulted_chunks"] == 0, r


def test_congestion_aware_routing_beats_single_path_twofold():
    assert get("congestion").run().extra["congestion_speedup"] >= 2.0


def test_goodput_monotone_niceness():
    """Goodput grows with kernel size for the traditional model."""
    g_small = measure_p2p_goodput(4, "sendrecv", ONE_NODE)
    g_large = measure_p2p_goodput(256, "sendrecv", ONE_NODE)
    assert g_large > g_small


# A run too short to keep a window after the warm-up is refused before any
# World is built.
def test_allreduce_needs_one_timed_iteration():
    with pytest.raises(ValueError, match="iters >= 1"):
        measure_allreduce(8, "traditional", ONE_NODE, 4, iters=0)


def test_goodput_needs_two_iterations():
    with pytest.raises(ValueError, match="iters >= 2"):
        measure_p2p_goodput(4, "sendrecv", ONE_NODE, iters=1)


def test_overheads_need_two_iterations():
    with pytest.raises(ValueError, match="iters >= 2"):
        measure_overheads(iters=1)


@pytest.mark.parametrize("argv,msg", [
    (["--suite", "cluster-fattree-512", "--shards", "0"], "workers must be >= 1"),
    (["--suite", "nope"], "unknown bench suite entries ['nope']"),
], ids=["shards-0", "unknown-suite"])
def test_bench_reports_bad_input_as_one_error_line(tmp_path, capsys, argv, msg):
    out = tmp_path / "bench.json"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bench error: ") and msg in err
    assert "Traceback" not in err and not out.exists()


def test_against_requires_every_field_to_equal_the_baseline(tmp_path, capsys):
    """A baseline row whose non-pop field was doctored fails the gate, and
    the report names that field."""
    good = tmp_path / "good.json"
    assert main(["--suite", "pingpong", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    assert main(["--suite", "pingpong", "--out", str(tmp_path / "a.json"),
                 "--against", str(good)]) == 0
    doc["suite"]["pingpong"]["peak_heap"] += 1
    doc["suite"]["pingpong"]["wall_s"] = 1.0   # host time is never compared
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--suite", "pingpong", "--out", str(tmp_path / "b.json"),
                 "--against", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "pingpong: peak_heap differ" in out


def test_against_without_suite_requires_every_baseline_row(tmp_path, monkeypatch):
    """A bare run must cover the whole baseline: a row it did not run fails."""
    from repro.bench import suite

    good = tmp_path / "good.json"
    assert main(["--suite", "pingpong", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["suite"]["retired-entry"] = dict(doc["suite"]["pingpong"])
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    monkeypatch.setattr(suite, "SUITE", {"pingpong": suite.SUITE["pingpong"]})
    assert main(["--out", str(tmp_path / "a.json"), "--against", str(base)]) == 1
