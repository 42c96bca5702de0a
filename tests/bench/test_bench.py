"""Bench harness: series container, renderer, decimated smoke runs."""

import json

import pytest

from repro.bench.series import Series, render
from repro.bench import figures
from repro.bench.p2p import auto_transport_partitions, measure_p2p_goodput
from repro.hw.params import ONE_NODE


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
    s = figures.fig2(grids=(1, 256))
    assert len(s.rows) == 2
    assert s.rows[0]["sync_us"] == pytest.approx(7.8, abs=0.1)


def test_fig3_smoke_decimated():
    s = figures.fig3(threads=(1, 1024))
    last = s.rows[-1]
    assert last["thread_us"] > last["warp_us"] > last["block_us"]


def test_fig4_smoke_single_point():
    s = figures.fig4(grids=(16,))
    row = s.rows[0]
    assert row["kernel_copy"] > row["sendrecv"]


def test_exhibit_registry_complete():
    assert set(figures.ALL_EXHIBITS) == {
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "table1", "fig8", "fig9", "fig10", "fig11",
    }
    for fn in figures.ALL_EXHIBITS.values():
        assert callable(fn)


def test_bench_suite_has_graph_replay_entries():
    from repro.perf.bench import SUITE

    assert "graph-replay-jacobi" in SUITE
    assert "graph-replay-llm16" in SUITE


def test_graph_replay_bench_entry_batches_pops():
    from repro.perf.bench import run_suite

    row = run_suite(["graph-replay-jacobi"])["graph-replay-jacobi"]
    assert row["graph_launches"] > 0
    assert row["events_graphed"] > 0
    # ISSUE acceptance: >= 3x fewer host pops than the eager equivalent.
    assert row["pop_batching_factor"] >= 3.0
    assert row["events_graphed"] >= 3 * row["cluster_events_popped"]
    assert row["msg_digest"]


def test_baseline_auto_picks_newest_but_never_the_runs_own_out(tmp_path, monkeypatch):
    from repro.perf.bench import resolve_baseline

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
    from repro.perf.bench import main, next_pr

    assert next_pr(str(tmp_path)) == 1
    for pr in (9, 10):
        (tmp_path / f"BENCH_pr{pr}.json").write_text("{}\n")
    assert next_pr(str(tmp_path)) == 11
    monkeypatch.chdir(tmp_path)
    assert main(["--suite", "pingpong"]) == 0
    assert (tmp_path / "BENCH_pr10.json").read_text() == "{}\n"
    assert json.loads((tmp_path / "BENCH_pr11.json").read_text())["pr"] == 11
    assert "wrote BENCH_pr11.json" in capsys.readouterr().out


def test_goodput_monotone_niceness():
    """Goodput grows with kernel size for the traditional model."""
    g_small = measure_p2p_goodput(4, "sendrecv", ONE_NODE)
    g_large = measure_p2p_goodput(256, "sendrecv", ONE_NODE)
    assert g_large > g_small
